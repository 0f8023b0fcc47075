package seckey

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"iotmpc/internal/field"
)

// The reference* functions below are the package's original sealing code,
// kept as the oracle Link must agree with: a fresh aes.NewCipher for the
// keystream and another for the MAC, cipher.NewCTR, and CMAC over an
// explicitly concatenated nonce ‖ ciphertext message.

// referenceCMAC computes the full 16-byte AES-CMAC of msg under key.
func referenceCMAC(key Key, msg []byte) ([aes.BlockSize]byte, error) {
	var mac [aes.BlockSize]byte
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return mac, err
	}
	k1, k2 := cmacSubkeys(block)

	n := len(msg) / aes.BlockSize
	rem := len(msg) % aes.BlockSize
	full := rem == 0 && len(msg) > 0

	var last [aes.BlockSize]byte
	if full {
		copy(last[:], msg[len(msg)-aes.BlockSize:])
		for i := range last {
			last[i] ^= k1[i]
		}
		n--
	} else {
		copy(last[:], msg[n*aes.BlockSize:])
		last[rem] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	}

	var x [aes.BlockSize]byte
	for i := 0; i < n; i++ {
		for j := 0; j < aes.BlockSize; j++ {
			x[j] ^= msg[i*aes.BlockSize+j]
		}
		block.Encrypt(x[:], x[:])
	}
	for j := 0; j < aes.BlockSize; j++ {
		x[j] ^= last[j]
	}
	block.Encrypt(mac[:], x[:])
	return mac, nil
}

func referenceMACOverPacket(key Key, ctx PacketContext, ct []byte) ([aes.BlockSize]byte, error) {
	nonce := ctx.nonce()
	msg := make([]byte, 0, aes.BlockSize+len(ct))
	msg = append(msg, nonce[:]...)
	msg = append(msg, ct...)
	return referenceCMAC(key, msg)
}

func referenceSealShare(key Key, ctx PacketContext, value field.Element) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	var plain [8]byte
	binary.LittleEndian.PutUint64(plain[:], value.Uint64())
	nonce := ctx.nonce()
	out := make([]byte, SealedShareSize)
	cipher.NewCTR(block, nonce[:]).XORKeyStream(out[:8], plain[:])
	mac, err := referenceMACOverPacket(key, ctx, out[:8])
	if err != nil {
		return nil, err
	}
	copy(out[8:], mac[:TagSize])
	return out, nil
}

func referenceOpenShare(key Key, ctx PacketContext, sealed []byte) (field.Element, error) {
	if len(sealed) < SealedShareSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(sealed))
	}
	mac, err := referenceMACOverPacket(key, ctx, sealed[:8])
	if err != nil {
		return 0, err
	}
	if !tagEqual(mac[:TagSize], sealed[8:SealedShareSize]) {
		return 0, ErrAuthFailed
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return 0, err
	}
	nonce := ctx.nonce()
	var plain [8]byte
	cipher.NewCTR(block, nonce[:]).XORKeyStream(plain[:], sealed[:8])
	return field.New(binary.LittleEndian.Uint64(plain[:])), nil
}

func referenceSealVector(key Key, ctx PacketContext, values []field.Element) ([]byte, error) {
	l := len(values)
	if l > MaxVectorElems {
		return nil, fmt.Errorf("%w: %d elements", ErrBadVectorLen, l)
	}
	ctx.VecLen = uint16(l)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	plain := make([]byte, 8*l)
	for i, v := range values {
		binary.LittleEndian.PutUint64(plain[8*i:], v.Uint64())
	}
	nonce := ctx.nonce()
	out := make([]byte, SealedVectorSize(l))
	cipher.NewCTR(block, nonce[:]).XORKeyStream(out[:8*l], plain)
	mac, err := referenceMACOverPacket(key, ctx, out[:8*l])
	if err != nil {
		return nil, err
	}
	copy(out[8*l:], mac[:TagSize])
	return out, nil
}

func referenceOpenVector(key Key, ctx PacketContext, vecLen int, sealed []byte) ([]field.Element, error) {
	if vecLen < 0 || vecLen > MaxVectorElems {
		return nil, fmt.Errorf("%w: %d elements", ErrBadVectorLen, vecLen)
	}
	ctx.VecLen = uint16(vecLen)
	ct := 8 * vecLen
	if len(sealed) < SealedVectorSize(vecLen) {
		return nil, fmt.Errorf("%w: %d bytes for %d elements", ErrShortPacket, len(sealed), vecLen)
	}
	mac, err := referenceMACOverPacket(key, ctx, sealed[:ct])
	if err != nil {
		return nil, err
	}
	if !tagEqual(mac[:TagSize], sealed[ct:ct+TagSize]) {
		return nil, ErrAuthFailed
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	nonce := ctx.nonce()
	plain := make([]byte, ct)
	cipher.NewCTR(block, nonce[:]).XORKeyStream(plain, sealed[:ct])
	values := make([]field.Element, vecLen)
	for i := range values {
		values[i] = field.New(binary.LittleEndian.Uint64(plain[8*i:]))
	}
	return values, nil
}

// fuzzMaxVecLen is core.MaxVectorLen (14, the longest vector one 802.15.4
// frame carries) plus 2, so fuzzed lengths cross both the 16-byte CTR and
// CMAC block boundaries and the protocol's frame bound.
const fuzzMaxVecLen = 14 + 2

// sameOutcome fails the test unless two open results agree: both accept
// with equal values, or both reject with the same error class.
func sameOutcome(t *testing.T, what string, got, want []field.Element, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: Link err = %v, reference err = %v", what, gotErr, wantErr)
	}
	for _, class := range []error{ErrShortPacket, ErrAuthFailed, ErrBadVectorLen} {
		if errors.Is(gotErr, class) != errors.Is(wantErr, class) {
			t.Fatalf("%s: Link err = %v, reference err = %v", what, gotErr, wantErr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Link opened %v, reference %v", what, got, want)
	}
}

// FuzzLinkMatchesReference checks Link against the reference code for
// random keys, contexts and vector lengths: sealing is byte-identical, and
// OpenVector accepts exactly what the reference accepts — for the genuine
// packet, a bit-flipped one, a truncated one, one opened under the wrong
// vector length or slot, and an arbitrary fuzzed packet.
func FuzzLinkMatchesReference(f *testing.F) {
	for _, l := range []uint8{0, 1, 2, 3, 4, 14, 15, 16} {
		f.Add([]byte("0123456789abcdef"), uint32(7), uint16(1), uint16(2), uint32(3), l,
			uint64(l)*0x9e3779b9, uint16(5), []byte{})
	}
	f.Add([]byte{}, uint32(0), uint16(0), uint16(0), uint32(0), uint8(0), uint64(0), uint16(0), []byte{1, 2, 3})
	f.Add([]byte{0xff, 0xfe}, ^uint32(0), ^uint16(0), uint16(9), ^uint32(0), uint8(14), ^uint64(0),
		^uint16(0), bytes.Repeat([]byte{0xa5}, SealedVectorSize(14)))

	f.Fuzz(func(t *testing.T, keyBytes []byte, round uint32, sender, receiver uint16, slot uint32,
		vecLen uint8, valueSeed uint64, pos uint16, junk []byte) {
		var key Key
		copy(key[:], keyBytes)
		link := NewLink(key)
		l := int(vecLen) % (fuzzMaxVecLen + 1)
		ctx := PacketContext{Round: round, Sender: sender, Receiver: receiver, Slot: slot}
		rng := rand.New(rand.NewSource(int64(valueSeed)))
		values := make([]field.Element, l)
		for i := range values {
			values[i] = field.New(rng.Uint64())
		}

		sealed, err := link.SealVector(ctx, values)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceSealVector(key, ctx, values)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sealed, want) {
			t.Fatalf("L=%d: Link sealed %x, reference %x", l, sealed, want)
		}
		if l == 1 {
			got, _ := SealShare(key, ctx, values[0])
			want, _ := referenceSealShare(key, ctx, values[0])
			if !bytes.Equal(got, want) {
				t.Fatalf("SealShare = %x, reference %x", got, want)
			}
			gotV, gotErr := OpenShare(key, ctx, junk)
			wantV, wantErr := referenceOpenShare(key, ctx, junk)
			if gotV != wantV {
				t.Fatalf("OpenShare(junk) = %v, reference %v", gotV, wantV)
			}
			sameOutcome(t, "OpenShare(junk)", nil, nil, gotErr, wantErr)
		}

		flipped := append([]byte(nil), sealed...)
		flipped[int(pos)%len(flipped)] ^= 1 << (pos % 8)
		wrongSlot := ctx
		wrongSlot.Slot++
		cases := []struct {
			name   string
			ctx    PacketContext
			vecLen int
			packet []byte
		}{
			{"genuine", ctx, l, sealed},
			{"tampered", ctx, l, flipped},
			{"truncated", ctx, l, sealed[:int(pos)%len(sealed)]},
			{"veclen+1", ctx, l + 1, sealed},
			{"veclen-1", ctx, l - 1, sealed},
			{"wrong slot", wrongSlot, l, sealed},
			{"junk", ctx, l, junk},
		}
		for _, c := range cases {
			got, gotErr := link.OpenVector(c.ctx, c.vecLen, c.packet)
			want, wantErr := referenceOpenVector(key, c.ctx, c.vecLen, c.packet)
			sameOutcome(t, fmt.Sprintf("L=%d %s", l, c.name), got, want, gotErr, wantErr)
		}
		if got, err := link.OpenVector(ctx, l, sealed); err != nil || !reflect.DeepEqual(got, values) {
			t.Fatalf("L=%d: genuine packet opened to %v, %v; want %v", l, got, err, values)
		}
	})
}

// TestLinkMatchesReferenceLongVectors covers lengths whose CTR block counter
// needs the second-to-last nonce byte, up to the largest packet the context
// can bind.
func TestLinkMatchesReferenceLongVectors(t *testing.T) {
	key := fuzzKey()
	link := NewLink(key)
	ctx := PacketContext{Round: 9, Sender: 3, Receiver: 4, Slot: 5}
	for _, l := range []int{511, 512, 513, MaxVectorElems} {
		values := benchValues(l)
		got, err := link.SealVector(ctx, values)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceSealVector(key, ctx, values)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("L=%d: Link and reference packets differ", l)
		}
		opened, err := link.OpenVector(ctx, l, got)
		if err != nil || !reflect.DeepEqual(opened, values) {
			t.Fatalf("L=%d: open = %v", l, err)
		}
	}
}
