package seckey

import (
	"crypto/aes"
	"encoding/binary"
	"errors"
	"fmt"

	"iotmpc/internal/field"
)

// Share-packet wire format (sharing phase of SSS over MiniCast):
//
//	byte 0..8L-1     ciphertext of L 8-byte little-endian share values
//	byte 8L..8L+3    truncated AES-CMAC tag (4 bytes, 802.15.4 MIC-32 style)
//
// Scalar packets (SealShare/OpenShare) are the L=1 layout; vector packets
// (SealVector/OpenVector) pack a whole shamir.ShareVector under one CTR
// keystream and ONE MIC, so an L-sensor reading costs a single tag and a
// single header instead of L of each.
//
// The nonce for CTR mode is derived from (round, sender, receiver, slot,
// vector length) so every sub-slot of every round keys a unique keystream
// without shipping a nonce on air — both endpoints know the TDMA schedule
// and the deployment's configured vector length. Because the MIC covers the
// nonce, a packet truncated or opened under the wrong vector length fails
// authentication instead of decrypting to garbage.

// TagSize is the truncated MIC length in bytes (MIC-32, as in 802.15.4
// security level 5 which pairs encryption with a 4-byte MIC).
const TagSize = 4

// SealedShareSize is the on-air size of an encrypted share value.
const SealedShareSize = 8 + TagSize

// MaxVectorElems bounds the element count of a sealed vector: the length is
// bound into the packet context as a uint16.
const MaxVectorElems = 1<<16 - 1

// SealedVectorSize is the on-air size of an encrypted share vector of l
// elements: the packed 8·l-byte payload plus one MIC for the whole vector.
func SealedVectorSize(l int) int { return 8*l + TagSize }

// Errors returned by packet sealing.
var (
	// ErrAuthFailed is returned when the MIC does not verify.
	ErrAuthFailed = errors.New("seckey: packet authentication failed")
	// ErrShortPacket is returned for truncated ciphertext.
	ErrShortPacket = errors.New("seckey: packet too short")
	// ErrBadVectorLen is returned for vector lengths outside
	// [0, MaxVectorElems] — a caller bug, not a wire-corruption condition.
	ErrBadVectorLen = errors.New("seckey: invalid vector length")
)

// PacketContext binds a sealed share to its position in the protocol so a
// ciphertext replayed in another slot or round fails authentication.
type PacketContext struct {
	Round    uint32
	Sender   uint16
	Receiver uint16
	Slot     uint32
	// VecLen is the element count of a sealed share vector. Scalar packets
	// leave it zero; SealVector/OpenVector set it themselves, which binds
	// the expected length into the nonce (and therefore the MIC).
	VecLen uint16
}

func (c PacketContext) nonce() [aes.BlockSize]byte {
	var n [aes.BlockSize]byte
	binary.LittleEndian.PutUint32(n[0:], c.Round)
	binary.LittleEndian.PutUint16(n[4:], c.Sender)
	binary.LittleEndian.PutUint16(n[6:], c.Receiver)
	binary.LittleEndian.PutUint32(n[8:], c.Slot)
	binary.LittleEndian.PutUint16(n[12:], c.VecLen)
	return n
}

// SealShare encrypts and authenticates one share value under the pairwise
// key, bound to ctx.
func SealShare(key Key, ctx PacketContext, value field.Element) ([]byte, error) {
	return NewLink(key).seal(nil, new(Block), ctx, []field.Element{value}), nil
}

// OpenShare verifies and decrypts a sealed share.
func OpenShare(key Key, ctx PacketContext, sealed []byte) (field.Element, error) {
	if len(sealed) < SealedShareSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(sealed))
	}
	values, err := NewLink(key).open(nil, new(Block), ctx, 1, sealed)
	if err != nil {
		return 0, err
	}
	return values[0], nil
}

// SealVector is Link.SealVector under a key prepared for this one packet.
// Callers sealing many packets per pair should hold a Link instead.
func SealVector(key Key, ctx PacketContext, values []field.Element) ([]byte, error) {
	return NewLink(key).SealVector(ctx, values)
}

// OpenVector is Link.OpenVector under a key prepared for this one packet.
func OpenVector(key Key, ctx PacketContext, vecLen int, sealed []byte) ([]field.Element, error) {
	return NewLink(key).OpenVector(ctx, vecLen, sealed)
}
