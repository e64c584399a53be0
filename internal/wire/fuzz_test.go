package wire

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"algossip/internal/gf"
)

// FuzzWireDecode pins the decoder's hostile-input contract: arbitrary and
// torn byte streams must never panic or over-allocate, and any frame that
// decodes must re-encode to the identical bytes (the codec is canonical).
// The in-place decoders agree with DecodeFrame on every input, whether
// the arrays they reuse start too short or too long, and the stream
// Reader yields the same frames in the same order.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	seed, _ := AppendFrame(nil, 7, &Envelope{Kind: KindPacket, From: 3,
		WantReply: true, Gen: 2, Coeffs: []gf.Elem{1, 2, 3}, Payload: []byte("seed")})
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	two := append(append([]byte(nil), seed...), seed...)
	f.Add(two)
	f.Fuzz(func(t *testing.T, data []byte) {
		short := Envelope{Coeffs: make([]gf.Elem, 1), Payload: make([]byte, 1)}
		long := Envelope{Coeffs: slices.Repeat([]gf.Elem{0xEE}, 300), Payload: bytes.Repeat([]byte{0xEE}, 300)}
		r := NewReader(bytes.NewReader(data))
		var streamed Envelope
		off := 0
		for off < len(data) {
			to, env, n, err := DecodeFrame(data[off:])
			for _, reused := range []*Envelope{&short, &long} {
				before := *reused
				gotTo, gotN, gotErr := DecodeFrameInto(data[off:], reused)
				if (gotErr == nil) != (err == nil) || gotErr != nil && gotErr.Error() != err.Error() {
					t.Fatalf("DecodeFrameInto err %v, DecodeFrame err %v", gotErr, err)
				}
				if err != nil {
					if !sameEnvelope(*reused, before) {
						t.Fatalf("a refused frame changed the envelope")
					}
					continue
				}
				if gotTo != to || gotN != n || !sameEnvelope(*reused, env) {
					t.Fatalf("in-place decode at offset %d disagrees with DecodeFrame", off)
				}
			}
			streamTo, streamErr := r.ReadFrameInto(&streamed)
			if err != nil {
				// Screened. The stream reader refuses the same frame.
				if streamErr == nil {
					t.Fatalf("Reader accepted a frame DecodeFrame refused: %v", err)
				}
				return
			}
			if streamErr != nil || streamTo != to || !sameEnvelope(streamed, env) {
				t.Fatalf("Reader at offset %d disagrees with DecodeFrame (%v)", off, streamErr)
			}
			if n <= 0 || off+n > len(data) {
				t.Fatalf("DecodeFrame consumed %d bytes of %d", n, len(data)-off)
			}
			re, err := AppendFrame(nil, to, &env)
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			if !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("re-encode mismatch at offset %d", off)
			}
			off += n
		}
		if _, err := r.ReadFrameInto(&streamed); !errors.Is(err, io.EOF) {
			t.Fatalf("Reader after the last frame: %v, want io.EOF", err)
		}
	})
}

// sameEnvelope compares two envelopes field by field; an empty array and
// a nil one are the same.
func sameEnvelope(a, b Envelope) bool {
	return a.Kind == b.Kind && a.From == b.From && a.WantReply == b.WantReply && a.Gen == b.Gen &&
		bytes.Equal(gf.AsBytes(a.Coeffs), gf.AsBytes(b.Coeffs)) && bytes.Equal(a.Payload, b.Payload)
}
