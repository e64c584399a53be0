package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"algossip/internal/core"
	"algossip/internal/gf"
)

func sampleEnvelopes() []Envelope {
	return []Envelope{
		{Kind: KindPacket, From: 3, WantReply: true, Gen: 0,
			Coeffs:  []gf.Elem{1, 0, 255, 17},
			Payload: []byte("payload-bytes")},
		{Kind: KindPacket, From: 0, Gen: 7,
			Coeffs: []gf.Elem{9, 9}},
		{Kind: KindAnnounce, From: 41},
		{Kind: KindPacket, From: 1 << 20, Gen: 123456,
			Coeffs:  make([]gf.Elem, 64),
			Payload: make([]byte, 1024)},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, env := range sampleEnvelopes() {
		to := core.NodeID(i * 13)
		b, err := AppendFrame(nil, to, &env)
		if err != nil {
			t.Fatalf("env %d: AppendFrame: %v", i, err)
		}
		if len(b) != FrameLen(&env) {
			t.Fatalf("env %d: frame len %d, FrameLen says %d", i, len(b), FrameLen(&env))
		}
		gotTo, got, n, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("env %d: DecodeFrame: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("env %d: consumed %d of %d bytes", i, n, len(b))
		}
		if gotTo != to {
			t.Fatalf("env %d: to=%d want %d", i, gotTo, to)
		}
		checkEnvelope(t, i, got, env)
	}
}

func checkEnvelope(t *testing.T, i int, got, want Envelope) {
	t.Helper()
	if got.Kind != want.Kind || got.From != want.From ||
		got.WantReply != want.WantReply || got.Gen != want.Gen {
		t.Fatalf("env %d: header mismatch: got %+v want %+v", i, got, want)
	}
	if len(got.Coeffs) != len(want.Coeffs) {
		t.Fatalf("env %d: %d coeffs, want %d", i, len(got.Coeffs), len(want.Coeffs))
	}
	for j := range want.Coeffs {
		if got.Coeffs[j] != want.Coeffs[j] {
			t.Fatalf("env %d: coeff %d = %d, want %d", i, j, got.Coeffs[j], want.Coeffs[j])
		}
	}
	if !bytes.Equal(got.Payload, want.Payload) && len(want.Payload) > 0 {
		t.Fatalf("env %d: payload mismatch", i)
	}
}

// TestDecodeConcatenated checks that DecodeFrame's consumed-byte count
// walks a buffer holding several back-to-back frames.
func TestDecodeConcatenated(t *testing.T) {
	envs := sampleEnvelopes()
	var buf []byte
	for i, env := range envs {
		var err error
		buf, err = AppendFrame(buf, core.NodeID(i), &env)
		if err != nil {
			t.Fatal(err)
		}
	}
	off := 0
	for i := range envs {
		to, got, n, err := DecodeFrame(buf[off:])
		if err != nil {
			t.Fatalf("frame %d at offset %d: %v", i, off, err)
		}
		if to != core.NodeID(i) {
			t.Fatalf("frame %d: to=%d", i, to)
		}
		checkEnvelope(t, i, got, envs[i])
		off += n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := AppendFrame(nil, 5, &Envelope{Kind: KindPacket, From: 2,
		Coeffs: []gf.Elem{1, 2, 3}, Payload: []byte("xy")})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short prefix", good[:3], ErrTruncated},
		{"torn body", good[:len(good)-1], ErrTruncated},
		{"bad magic", mutate(func(b []byte) { b[4] ^= 0xFF }), ErrBadMagic},
		{"bad version", mutate(func(b []byte) { b[6] = 99 }), ErrBadVersion},
		{"bad kind", mutate(func(b []byte) { b[7] = 200 }), ErrBadKind},
		{"undefined flag bits", mutate(func(b []byte) { b[8] |= 0x30 }), ErrBadFlags},
		{"huge prefix", mutate(func(b []byte) { b[0] = 0xFF; b[1] = 0xFF }), ErrFrameTooBig},
		{"tiny prefix", mutate(func(b []byte) { b[0], b[1], b[2], b[3] = 0, 0, 0, 1 }), ErrLengthMismatch},
		{"k overshoots", mutate(func(b []byte) { b[24] = 200 }), ErrLengthMismatch},
	}
	for _, tc := range cases {
		_, _, _, err := DecodeFrame(tc.buf)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := AppendFrame(nil, -1, &Envelope{}); !errors.Is(err, ErrBadNode) {
		t.Errorf("negative to: %v", err)
	}
	if _, err := AppendFrame(nil, 0, &Envelope{From: -2}); !errors.Is(err, ErrBadNode) {
		t.Errorf("negative from: %v", err)
	}
	if _, err := AppendFrame(nil, 0, &Envelope{Gen: -1}); !errors.Is(err, ErrBadNode) {
		t.Errorf("negative gen: %v", err)
	}
	if _, err := AppendFrame(nil, 0, &Envelope{Kind: 99}); !errors.Is(err, ErrBadKind) {
		t.Errorf("bad kind: %v", err)
	}
	if _, err := AppendFrame(nil, 0, &Envelope{Payload: make([]byte, MaxFrame)}); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized payload: %v", err)
	}
}

func TestStreamReaderWriter(t *testing.T) {
	envs := sampleEnvelopes()
	var stream []byte
	for i, env := range envs {
		var err error
		if stream, err = AppendFrame(stream, core.NodeID(100+i), &env); err != nil {
			t.Fatalf("AppendFrame %d: %v", i, err)
		}
	}
	r := NewReader(bytes.NewReader(stream))
	for i := range envs {
		var got Envelope
		to, err := r.ReadFrameInto(&got)
		if err != nil {
			t.Fatalf("ReadFrameInto %d: %v", i, err)
		}
		if to != core.NodeID(100+i) {
			t.Fatalf("frame %d: to=%d", i, to)
		}
		checkEnvelope(t, i, got, envs[i])
	}
	if _, err := r.ReadFrameInto(&Envelope{}); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestReaderTornStream pins the stream-level screen: a connection that
// dies mid-frame surfaces ErrTruncated, not a panic or a garbage frame.
func TestReaderTornStream(t *testing.T) {
	full, err := AppendFrame(nil, 1, &Envelope{Kind: KindPacket, From: 0,
		Coeffs: []gf.Elem{4, 5, 6}, Payload: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.ReadFrameInto(&Envelope{}); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

// TestReaderEnvelopeOwnership checks that an envelope read into a zero
// Envelope survives the reads after it, across refills of the Reader's
// buffer (the buffer is reused, so the slices must not alias it).
func TestReaderEnvelopeOwnership(t *testing.T) {
	a := Envelope{Kind: KindPacket, From: 1, Coeffs: []gf.Elem{1, 2}, Payload: []byte("AA")}
	b := Envelope{Kind: KindPacket, From: 2, Coeffs: []gf.Elem{3, 4}, Payload: bytes.Repeat([]byte("B"), 4096)}
	stream, _ := AppendFrame(nil, 0, &a)
	for len(stream) < 3*readBuffer {
		stream, _ = AppendFrame(stream, 0, &b)
	}
	r := NewReader(bytes.NewReader(stream))
	var gotA Envelope
	if _, err := r.ReadFrameInto(&gotA); err != nil {
		t.Fatal(err)
	}
	var rest Envelope
	for {
		if _, err := r.ReadFrameInto(&rest); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	checkEnvelope(t, 0, gotA, a)
}

// TestDecodeFrameIntoReuses: an envelope whose arrays have room is decoded
// into them, with no allocation; one whose arrays are too short gets fresh
// ones of the frame's lengths.
func TestDecodeFrameIntoReuses(t *testing.T) {
	want := sampleEnvelopes()[0]
	frame, err := AppendFrame(nil, 9, &want)
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope{Coeffs: make([]gf.Elem, 2*len(want.Coeffs)), Payload: make([]byte, 2*len(want.Payload))}
	coeffs, payload := &env.Coeffs[0], &env.Payload[0]
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeFrameInto(frame, &env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decode into arrays with room: %v allocations, want 0", allocs)
	}
	if &env.Coeffs[0] != coeffs || &env.Payload[0] != payload {
		t.Errorf("decode into arrays with room replaced them")
	}
	checkEnvelope(t, 0, env, want)

	short := Envelope{Coeffs: make([]gf.Elem, 1), Payload: make([]byte, 1)}
	if _, _, err := DecodeFrameInto(frame, &short); err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, 0, short, want)
}

// TestReaderFramesAroundItsBuffer: a frame larger than the Reader's buffer
// is read whole between buffered ones, into a reused envelope.
func TestReaderFramesAroundItsBuffer(t *testing.T) {
	small := sampleEnvelopes()[0]
	big := Envelope{Kind: KindPacket, From: 5, Coeffs: make([]gf.Elem, 64), Payload: make([]byte, 3*readBuffer)}
	for i := range big.Payload {
		big.Payload[i] = byte(i)
	}
	envs := []Envelope{small, big, small, big}
	var stream []byte
	for i := range envs {
		stream, _ = AppendFrame(stream, core.NodeID(i), &envs[i])
	}
	r := NewReader(bytes.NewReader(stream))
	var env Envelope
	for i, want := range envs {
		to, err := r.ReadFrameInto(&env)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if to != core.NodeID(i) {
			t.Fatalf("frame %d: to=%d", i, to)
		}
		checkEnvelope(t, i, env, want)
	}
	if _, err := r.ReadFrameInto(&env); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}
