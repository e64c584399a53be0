// Package wire defines the versioned, length-prefixed binary frame format
// the deployable network runtime speaks — the codec boundary between the
// in-process gossip protocols and real sockets. One frame carries one
// Envelope: a coded RLNC packet (or a spanning-tree announcement) plus
// exchange metadata, in the one-coefficient-per-symbol wire layout the
// rlnc Adapt/ExpandCoeffs/ExpandPayload bridges pin down.
//
// Frame layout (all integers big-endian):
//
//	length  uint32  byte count of everything after this field
//	magic   uint16  0xA160
//	version uint8   1
//	kind    uint8   Kind
//	flags   uint8   bit0 = WantReply; every other bit must be 0
//	from    uint32  sending node id
//	to      uint32  destination node id (transport demux)
//	gen     uint32  generation tag (0 for classic RLNC)
//	k       uint32  coefficient count
//	rlen    uint32  payload byte count
//	coeffs  k bytes, one field symbol per byte
//	payload rlen bytes
//
// Decoding screens every malformed shape — wrong magic, unknown version,
// kind or flag bits, lengths that disagree, frames above MaxFrame — with typed errors
// and never panics (FuzzWireDecode pins this), mirroring the
// malformed-packet screens the rlnc receive paths apply one layer up: a
// hostile or torn byte stream must cost the receiver a closed connection
// at worst, never a crash.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"algossip/internal/core"
	"algossip/internal/gf"
)

// Kind distinguishes wire message types.
type Kind uint8

const (
	// KindPacket carries one RLNC coded packet (the default).
	KindPacket Kind = iota
	// KindAnnounce is a spanning-tree broadcast message: "I am part of
	// the tree; adopt me as your parent if you have none" (distributed
	// TAG's Phase 1).
	KindAnnounce

	kindCount
)

// Envelope is the wire message: one coded packet plus exchange metadata.
// It is the unit every runtime Transport moves; the destination node is a
// Send parameter, not an Envelope field, and travels in the frame header.
type Envelope struct {
	// Kind selects the message type.
	Kind Kind
	// From is the sending node.
	From core.NodeID
	// WantReply marks the first leg of an EXCHANGE: the receiver answers
	// with one packet of its own (with WantReply unset).
	WantReply bool
	// Gen is the generation tag for generation-coded deployments; 0 in
	// classic whole-k coding (receivers in classic mode ignore it).
	Gen int
	// Coeffs is the coefficient vector, one field symbol per entry (k
	// entries for classic coding, the generation's size when Gen-tagged).
	Coeffs []gf.Elem
	// Payload is the combined payload row, one byte-encoded field symbol
	// per byte (may be empty in rank-only runs).
	Payload []byte
}

// Wire format constants.
const (
	// Magic opens every frame after the length prefix.
	Magic uint16 = 0xA160
	// Version is the current protocol version.
	Version uint8 = 1
	// headerLen is the fixed frame header size after the length prefix.
	headerLen = 25
	// MaxFrame bounds one frame's post-prefix byte count: a hostile
	// length prefix may not make the receiver allocate more than this.
	MaxFrame = 1 << 24
)

// Typed decode errors; all are wrapped with position context, so match
// with errors.Is.
var (
	// ErrTruncated reports a buffer or stream that ends mid-frame.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadMagic reports a frame that does not start with Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadVersion reports an unsupported protocol version.
	ErrBadVersion = errors.New("wire: unsupported version")
	// ErrBadKind reports an out-of-range envelope kind.
	ErrBadKind = errors.New("wire: unknown envelope kind")
	// ErrBadFlags reports a flags byte with an undefined bit set.
	ErrBadFlags = errors.New("wire: undefined flag bits")
	// ErrFrameTooBig reports a length prefix above MaxFrame (or an
	// encode-side envelope that would exceed it).
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	// ErrLengthMismatch reports a frame whose header lengths disagree
	// with the length prefix.
	ErrLengthMismatch = errors.New("wire: header lengths disagree with frame length")
	// ErrBadNode reports an encode-side node id outside uint32 range.
	ErrBadNode = errors.New("wire: node id not encodable")
)

const flagWantReply = 1 << 0

// FrameLen returns the encoded size of an envelope, including the 4-byte
// length prefix.
func FrameLen(env *Envelope) int {
	return 4 + headerLen + len(env.Coeffs) + len(env.Payload)
}

// AppendFrame appends one encoded frame for env addressed to `to` and
// returns the extended slice. It fails only on unencodable metadata (a
// negative node id or generation, or a frame above MaxFrame).
func AppendFrame(dst []byte, to core.NodeID, env *Envelope) ([]byte, error) {
	if env.Kind >= kindCount {
		return dst, fmt.Errorf("%w: %d", ErrBadKind, env.Kind)
	}
	if to < 0 || env.From < 0 {
		return dst, fmt.Errorf("%w: to=%d from=%d", ErrBadNode, to, env.From)
	}
	if env.Gen < 0 {
		return dst, fmt.Errorf("%w: generation %d", ErrBadNode, env.Gen)
	}
	body := headerLen + len(env.Coeffs) + len(env.Payload)
	if body > MaxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, body)
	}
	var flags byte
	if env.WantReply {
		flags |= flagWantReply
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(env.Kind), flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(env.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(to))
	dst = binary.BigEndian.AppendUint32(dst, uint32(env.Gen))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(env.Coeffs)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(env.Payload)))
	dst = append(dst, gf.AsBytes(env.Coeffs)...)
	return append(dst, env.Payload...), nil
}

// DecodeFrame decodes the first frame in b, returning the destination
// node, the envelope, and the number of bytes consumed. The returned
// envelope owns freshly allocated slices (safe to retain). All malformed
// shapes return a typed error; none panic.
func DecodeFrame(b []byte) (to core.NodeID, env Envelope, n int, err error) {
	to, n, err = DecodeFrameInto(b, &env)
	return to, env, n, err
}

// DecodeFrameInto is DecodeFrame into env, reusing the capacity of env's
// arrays: only an array too short for the frame is replaced by a fresh
// one, so a caller that keeps its envelopes' arrays decodes without
// allocating. The screens are DecodeFrame's, and a frame they refuse
// leaves env untouched.
func DecodeFrameInto(b []byte, env *Envelope) (to core.NodeID, n int, err error) {
	if len(b) < 4 {
		return 0, 0, fmt.Errorf("%w: %d prefix bytes", ErrTruncated, len(b))
	}
	body := binary.BigEndian.Uint32(b)
	if body > MaxFrame {
		return 0, 0, fmt.Errorf("%w: prefix says %d bytes", ErrFrameTooBig, body)
	}
	if body < headerLen {
		return 0, 0, fmt.Errorf("%w: prefix says %d bytes, header needs %d", ErrLengthMismatch, body, headerLen)
	}
	if uint32(len(b)-4) < body {
		return 0, 0, fmt.Errorf("%w: have %d of %d body bytes", ErrTruncated, len(b)-4, body)
	}
	f := b[4 : 4+body]
	if got := binary.BigEndian.Uint16(f); got != Magic {
		return 0, 0, fmt.Errorf("%w: 0x%04x", ErrBadMagic, got)
	}
	if f[2] != Version {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, f[2])
	}
	kind := Kind(f[3])
	if kind >= kindCount {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadKind, kind)
	}
	flags := f[4]
	if flags&^flagWantReply != 0 {
		return 0, 0, fmt.Errorf("%w: 0x%02x", ErrBadFlags, flags)
	}
	from := binary.BigEndian.Uint32(f[5:])
	toU := binary.BigEndian.Uint32(f[9:])
	gen := binary.BigEndian.Uint32(f[13:])
	k := binary.BigEndian.Uint32(f[17:])
	rlen := binary.BigEndian.Uint32(f[21:])
	if uint64(headerLen)+uint64(k)+uint64(rlen) != uint64(body) {
		return 0, 0, fmt.Errorf("%w: k=%d rlen=%d body=%d", ErrLengthMismatch, k, rlen, body)
	}
	env.Kind = kind
	env.From = core.NodeID(from)
	env.WantReply = flags&flagWantReply != 0
	env.Gen = int(gen)
	env.Coeffs = resize(env.Coeffs, int(k))
	copy(gf.AsBytes(env.Coeffs), f[headerLen:headerLen+k])
	env.Payload = resize(env.Payload, int(rlen))
	copy(env.Payload, f[headerLen+k:])
	return core.NodeID(toU), int(4 + body), nil
}

// resize returns s at length n, in s's own array when it has room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// readBuffer is a Reader's buffer: one read from the stream yields every
// frame that fits in it.
const readBuffer = 64 << 10

// Reader decodes frames from a stream through one buffer, so a stream
// whose sender coalesced many frames into one write is read with one
// read, not two per frame. Each frame's bytes are copied into a second,
// reused buffer and decoded from there, so the envelopes it returns never
// alias the stream's bytes.
type Reader struct {
	r   *bufio.Reader
	buf []byte // the frame being decoded
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, readBuffer)}
}

// ReadFrameInto reads exactly one frame into env, reusing the capacity of
// env's arrays as DecodeFrameInto does; a zero env gets fresh slices, safe
// to retain. A clean EOF on the frame boundary returns io.EOF; a stream
// ending mid-frame returns ErrTruncated; malformed frames return the
// DecodeFrame typed errors.
func (fr *Reader) ReadFrameInto(env *Envelope) (to core.NodeID, err error) {
	var prefix [4]byte
	if _, err := io.ReadFull(fr.r, prefix[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	body := binary.BigEndian.Uint32(prefix[:])
	if body > MaxFrame {
		return 0, fmt.Errorf("%w: prefix says %d bytes", ErrFrameTooBig, body)
	}
	fr.buf = resize(fr.buf, int(4+body))
	copy(fr.buf, prefix[:])
	if _, err := io.ReadFull(fr.r, fr.buf[4:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	to, _, err = DecodeFrameInto(fr.buf, env)
	return to, err
}
