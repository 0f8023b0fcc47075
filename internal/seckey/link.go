package seckey

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"slices"

	"iotmpc/internal/field"
)

// Link is a pairwise key prepared for sealing: the expanded AES-128 key
// schedule and the CMAC subkeys K1/K2, derived once when the secure channel
// is established instead of once per packet. A Link is read-only after
// NewLink and safe for concurrent use.
//
// Link is the only sealing implementation; the package-level SealShare,
// OpenShare, SealVector and OpenVector prepare a Link and call it.
type Link struct {
	block  cipher.Block
	k1, k2 [aes.BlockSize]byte
}

// NewLink prepares key for sealing and opening share packets.
func NewLink(key Key) *Link {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// Unreachable: a Key is always a valid AES-128 key.
		panic(fmt.Sprintf("seckey: %v", err))
	}
	l := &Link{block: block}
	l.k1, l.k2 = cmacSubkeys(block)
	return l
}

// Block is the working block of SealVectorTo and OpenVectorTo: scratch
// for the keystream and the MAC. The block cipher sits behind an
// interface, so a block it encrypts in place escapes to the heap; a caller
// that owns one and reuses it seals and opens without allocating.
type Block = [aes.BlockSize]byte

// SealVector encrypts and authenticates a whole share vector: one CTR
// keystream over the packed 8·L-byte payload and a single truncated CMAC
// tag for the vector. ctx.VecLen is overwritten with len(values), binding
// the length into the nonce and MIC.
func (l *Link) SealVector(ctx PacketContext, values []field.Element) ([]byte, error) {
	return l.SealVectorTo(nil, new(Block), ctx, values)
}

// SealVectorTo is SealVector into caller-owned memory: it appends the
// sealed packet to dst and returns the extended slice, as cipher.AEAD.Seal
// does, and uses blk as its working block. Pass dst[:0] to reuse dst's
// storage.
func (l *Link) SealVectorTo(dst []byte, blk *Block, ctx PacketContext, values []field.Element) ([]byte, error) {
	if len(values) > MaxVectorElems {
		return nil, fmt.Errorf("%w: %d elements", ErrBadVectorLen, len(values))
	}
	ctx.VecLen = uint16(len(values))
	return l.seal(dst, blk, ctx, values), nil
}

// OpenVector verifies and decrypts a sealed share vector of exactly vecLen
// elements. A truncated packet returns ErrShortPacket; a tampered packet, or
// one sealed under a different length, slot, or round, returns ErrAuthFailed.
func (l *Link) OpenVector(ctx PacketContext, vecLen int, sealed []byte) ([]field.Element, error) {
	return l.OpenVectorTo(nil, new(Block), ctx, vecLen, sealed)
}

// OpenVectorTo is OpenVector into caller-owned memory: it appends the
// vecLen opened values to dst and returns the extended slice, as
// cipher.AEAD.Open does, and uses blk as its working block. Pass dst[:0] to
// reuse dst's storage.
func (l *Link) OpenVectorTo(dst []field.Element, blk *Block, ctx PacketContext, vecLen int, sealed []byte) ([]field.Element, error) {
	if vecLen < 0 || vecLen > MaxVectorElems {
		return nil, fmt.Errorf("%w: %d elements", ErrBadVectorLen, vecLen)
	}
	ctx.VecLen = uint16(vecLen)
	if len(sealed) < SealedVectorSize(vecLen) {
		return nil, fmt.Errorf("%w: %d bytes for %d elements", ErrShortPacket, len(sealed), vecLen)
	}
	return l.open(dst, blk, ctx, vecLen, sealed)
}

// seal encrypts values under ctx as given, appends the ciphertext and the
// MIC over nonce ‖ ciphertext to dst, and returns the extended slice.
func (l *Link) seal(dst []byte, blk *Block, ctx PacketContext, values []field.Element) []byte {
	nonce := ctx.nonce()
	ct := 8 * len(values)
	size := SealedVectorSize(len(values))
	if dst == nil {
		dst = make([]byte, 0, size) // one exact allocation
	}
	dst = slices.Grow(dst, size)
	out := dst[len(dst) : len(dst)+size]
	for i, v := range values {
		binary.LittleEndian.PutUint64(out[8*i:], v.Uint64()^l.keyWord(blk, &nonce, i))
	}
	l.cmac(blk, nonce[:], out[:ct])
	copy(out[ct:], blk[:TagSize])
	return dst[:len(dst)+len(out)]
}

// open checks the MIC of a packet holding at least vecLen sealed elements,
// then decrypts them, appending the values to dst.
func (l *Link) open(dst []field.Element, blk *Block, ctx PacketContext, vecLen int, sealed []byte) ([]field.Element, error) {
	nonce := ctx.nonce()
	ct := 8 * vecLen
	l.cmac(blk, nonce[:], sealed[:ct])
	if !tagEqual(blk[:TagSize], sealed[ct:ct+TagSize]) {
		return nil, ErrAuthFailed
	}
	if dst == nil {
		dst = make([]field.Element, 0, vecLen) // an empty vector opens to [], not nil
	}
	dst = slices.Grow(dst, vecLen)
	for i := 0; i < vecLen; i++ {
		dst = append(dst, field.New(binary.LittleEndian.Uint64(sealed[8*i:])^l.keyWord(blk, &nonce, i)))
	}
	return dst, nil
}

// keyWord returns the CTR keystream word covering payload element i. Each
// keystream block covers two elements, so even i encrypts the next counter
// block into blk and odd i reuses it. Counter block j is the nonce plus j
// as a big-endian integer, as cipher.NewCTR counts; the nonce leaves its
// last two bytes zero and a packet has at most MaxVectorElems/2 < 2^16
// blocks, so the addition is a store into those two bytes.
func (l *Link) keyWord(blk, nonce *[aes.BlockSize]byte, i int) uint64 {
	if i%2 == 0 {
		*blk = *nonce
		binary.BigEndian.PutUint16(blk[aes.BlockSize-2:], uint16(i/2))
		l.block.Encrypt(blk[:], blk[:])
	}
	return binary.LittleEndian.Uint64(blk[8*(i%2):])
}

// cmac writes the AES-CMAC (RFC 4493) of head ‖ msg into x without building
// the concatenation. head must be whole blocks: the packet nonce, or nothing.
func (l *Link) cmac(x *[aes.BlockSize]byte, head, msg []byte) {
	*x = [aes.BlockSize]byte{}
	if len(msg) == 0 && len(head) > 0 {
		// The last head block is the message's final block.
		head, msg = head[:len(head)-aes.BlockSize], head[len(head)-aes.BlockSize:]
	}
	for ; len(head) > 0; head = head[aes.BlockSize:] {
		xorBlock(x, head)
		l.block.Encrypt(x[:], x[:])
	}
	for ; len(msg) > aes.BlockSize; msg = msg[aes.BlockSize:] {
		xorBlock(x, msg)
		l.block.Encrypt(x[:], x[:])
	}
	// Final block: a complete one is masked with K1, a partial one is
	// padded with 10* and masked with K2.
	if len(msg) == aes.BlockSize {
		xorBlock(x, msg)
		xorBlock(x, l.k1[:])
	} else {
		for i, b := range msg {
			x[i] ^= b
		}
		x[len(msg)] ^= 0x80
		xorBlock(x, l.k2[:])
	}
	l.block.Encrypt(x[:], x[:])
}

// xorBlock XORs the first block of b into x.
func xorBlock(x *[aes.BlockSize]byte, b []byte) {
	le := binary.LittleEndian
	le.PutUint64(x[:8], le.Uint64(x[:8])^le.Uint64(b[:8]))
	le.PutUint64(x[8:], le.Uint64(x[8:])^le.Uint64(b[8:16]))
}
