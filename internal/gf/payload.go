package gf

// Payload-row codec: the layout of the payload half of a GF(2^m)
// elimination row, private to this file.
//
// The coefficient half of a sliced row is always bit-planes (sliced.go):
// its pivot search and subset-table kernels need them. The payload half
// is only ever packed, multiply-added, scaled and unpacked, so it can use
// whichever layout the active tier's kernels move fastest:
//
//	planes  m bit-planes of SlicedWords(n) words, through AddMulSliced.
//	bytes   the n byte-encoded symbols themselves, eight per word in
//	        memory order (the wire's encoding), zero-padded to whole
//	        64-symbol blocks, through AddMulSlice/MulSlice.
//
// At m = 8 both layouts fill the same 8*SlicedWords(n) words, so callers
// size, copy and pool rows as opaque words and never learn which one they
// hold. Bytes are chosen only there, and only when the tier has a vector
// byte kernel (avx2, gfni); the pure-Go tiers move planes faster than
// bytes, and for m < 8 a byte row would not fit the plane row's words.
// Byte rows are only ever read through the byte view of their words, so
// the host's endianness never shows.

// PayloadCodec packs, combines and unpacks payload rows in the layout it
// chose at construction. Rows are m*SlicedWords(n) words for n symbols,
// the width arithmetic of PackSliced, whichever layout is in use.
type PayloadCodec struct {
	f     *GF2m
	bytes bool
}

// forcedPayloadLayout overrides the tier-based layout choice when
// non-zero: +1 bytes, -1 planes. Written only by ForcePayloadLayout.
var forcedPayloadLayout int8

// ForcePayloadLayout makes every PayloadCodec constructed afterwards use
// the byte layout (where the field admits it, m = 8) or the plane layout,
// whatever the tier, until the returned function is called. It is the
// hook of the layout-equivalence tests — both layouts run on any host —
// and like SetTier must be serialized against codec construction.
func ForcePayloadLayout(bytes bool) (restore func()) {
	old := forcedPayloadLayout
	forcedPayloadLayout = -1
	if bytes {
		forcedPayloadLayout = 1
	}
	return func() { forcedPayloadLayout = old }
}

// PayloadCodec returns the field's payload-row codec under the tier
// active now; later tier changes move its kernels, never its layout.
func (f *GF2m) PayloadCodec() PayloadCodec {
	bytes := activeTier >= TierAVX2
	if forcedPayloadLayout != 0 {
		bytes = forcedPayloadLayout > 0
	}
	return PayloadCodec{f: f, bytes: bytes && f.m == 8}
}

// Field returns the codec's field.
func (c PayloadCodec) Field() *GF2m { return c.f }

// Pack encodes the byte-encoded symbols of src into the row dst, which
// must have length m*SlicedWords(len(src)) and is overwritten.
func (c PayloadCodec) Pack(dst []uint64, src []byte) {
	if !c.bytes {
		c.f.PackSliced(dst, src)
		return
	}
	if len(dst) != 8*SlicedWords(len(src)) {
		panic("gf: payload pack width mismatch")
	}
	row := u64Bytes(dst)
	clear(row[copy(row, src):])
}

// Unpack decodes the row src, of length m*SlicedWords(len(dst)), into
// byte-encoded symbols.
func (c PayloadCodec) Unpack(dst []byte, src []uint64) {
	if !c.bytes {
		c.f.UnpackSliced(dst, src)
		return
	}
	if len(src) != 8*SlicedWords(len(dst)) {
		panic("gf: payload unpack width mismatch")
	}
	copy(dst, u64Bytes(src))
}

// AddMul performs dst += k*src over rows of words 64-symbol blocks
// (len(dst) and len(src) at least m*words).
func (c PayloadCodec) AddMul(dst, src []uint64, words int, k Elem) {
	if !c.bytes {
		c.f.AddMulSliced(dst, src, words, k)
		return
	}
	c.f.AddMulSlice(u64Bytes(dst[:8*words]), u64Bytes(src[:8*words]), k)
}

// Scale performs v = k*v in place over a row of words 64-symbol blocks.
func (c PayloadCodec) Scale(v []uint64, words int, k Elem) {
	if !c.bytes {
		c.f.ScaleSliced(v, words, k)
		return
	}
	c.f.MulSlice(u64Bytes(v[:8*words]), k)
}
