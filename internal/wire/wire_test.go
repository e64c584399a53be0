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
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, env := range envs {
		if err := w.WriteFrame(core.NodeID(100+i), &env); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	r := NewReader(&buf)
	for i := range envs {
		to, got, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if to != core.NodeID(100+i) {
			t.Fatalf("frame %d: to=%d", i, to)
		}
		checkEnvelope(t, i, got, envs[i])
	}
	if _, _, err := r.ReadFrame(); err != io.EOF {
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
		if _, _, err := r.ReadFrame(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
}

// TestReaderEnvelopeOwnership checks that envelopes from a shared Reader
// survive the next ReadFrame (the internal buffer is reused, slices must
// not alias it).
func TestReaderEnvelopeOwnership(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a := Envelope{Kind: KindPacket, From: 1, Coeffs: []gf.Elem{1, 2}, Payload: []byte("AA")}
	b := Envelope{Kind: KindPacket, From: 2, Coeffs: []gf.Elem{3, 4}, Payload: []byte("BB")}
	if err := w.WriteFrame(0, &a); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(0, &b); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	_, gotA, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, 0, gotA, a)
}
