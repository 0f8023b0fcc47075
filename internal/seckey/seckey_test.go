package seckey

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"errors"
	"testing"

	"iotmpc/internal/field"
)

func TestPairKeySymmetric(t *testing.T) {
	s := NewStore(MasterFromSeed(42))
	k1, err := s.PairKey(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s.PairKey(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("PairKey not symmetric")
	}
}

func TestPairKeyDistinctPairs(t *testing.T) {
	s := NewStore(MasterFromSeed(42))
	seen := make(map[Key]struct{})
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			k, err := s.PairKey(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := seen[k]; dup {
				t.Fatalf("duplicate key for pair (%d,%d)", a, b)
			}
			seen[k] = struct{}{}
		}
	}
}

func TestPairKeyAcrossStoresMatches(t *testing.T) {
	// Two nodes commissioned with the same master derive the same pair key —
	// this is what makes the "assumed shared during bootstrapping" channel work.
	a := NewStore(MasterFromSeed(9))
	b := NewStore(MasterFromSeed(9))
	ka, err := a.PairKey(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.PairKey(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("stores with same master disagree on pair key")
	}
}

func TestPairKeyDifferentMasters(t *testing.T) {
	a := NewStore(MasterFromSeed(1))
	b := NewStore(MasterFromSeed(2))
	ka, _ := a.PairKey(1, 2)
	kb, _ := b.PairKey(1, 2)
	if ka == kb {
		t.Error("different masters produced identical pair keys")
	}
}

func TestPairKeyErrors(t *testing.T) {
	s := NewStore(MasterFromSeed(1))
	if _, err := s.PairKey(4, 4); !errors.Is(err, ErrSelfPair) {
		t.Errorf("self pair: error = %v, want ErrSelfPair", err)
	}
	if _, err := s.PairKey(-1, 2); !errors.Is(err, ErrBadNodeID) {
		t.Errorf("negative id: error = %v, want ErrBadNodeID", err)
	}
}

func TestCMACRFC4493Vectors(t *testing.T) {
	// RFC 4493 test vectors for AES-128-CMAC.
	keyBytes, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	var key Key
	copy(key[:], keyBytes)

	msg16, _ := hex.DecodeString("6bc1bee22e409f96e93d7e117393172a")
	msg40, _ := hex.DecodeString("6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" + "30c81c46a35ce411")

	tests := []struct {
		name string
		msg  []byte
		want string
	}{
		{"empty", nil, "bb1d6929e95937287fa37d129b756746"},
		{"16 bytes", msg16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{"40 bytes", msg40, "dfa66747de9ae63030ca32611497c827"},
	}
	link := NewLink(key)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			want, _ := hex.DecodeString(tt.want)
			got, err := referenceCMAC(key, tt.msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:], want) {
				t.Errorf("reference cmac = %x, want %s", got, tt.want)
			}
			// Link's CMAC over the whole message, and split after each
			// whole-block prefix the way packets split nonce ‖ ciphertext.
			for head := 0; head <= len(tt.msg); head += aes.BlockSize {
				var mac [aes.BlockSize]byte
				link.cmac(&mac, tt.msg[:head], tt.msg[head:])
				if !bytes.Equal(mac[:], want) {
					t.Errorf("Link cmac with %d-byte head = %x, want %s", head, mac, tt.want)
				}
			}
		})
	}
}

func TestDblKnownBehavior(t *testing.T) {
	// Doubling a block with MSB clear is a plain left shift.
	var in [aes.BlockSize]byte
	in[aes.BlockSize-1] = 0x01
	out := dbl(in)
	if out[aes.BlockSize-1] != 0x02 {
		t.Errorf("dbl(...01) last byte = %#x, want 0x02", out[aes.BlockSize-1])
	}
	// With MSB set, reduction constant 0x87 folds in.
	in = [aes.BlockSize]byte{}
	in[0] = 0x80
	out = dbl(in)
	if out[aes.BlockSize-1] != 0x87 {
		t.Errorf("dbl(80...) last byte = %#x, want 0x87", out[aes.BlockSize-1])
	}
}

func TestSealOpenRoundtrip(t *testing.T) {
	s := NewStore(MasterFromSeed(7))
	key, err := s.PairKey(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := PacketContext{Round: 1, Sender: 2, Receiver: 5, Slot: 17}
	value := field.New(9999999999)
	sealed, err := SealShare(key, ctx, value)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != SealedShareSize {
		t.Fatalf("sealed size = %d, want %d", len(sealed), SealedShareSize)
	}
	got, err := OpenShare(key, ctx, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if got != value {
		t.Errorf("opened %v, want %v", got, value)
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	s := NewStore(MasterFromSeed(7))
	right, _ := s.PairKey(1, 2)
	wrong, _ := s.PairKey(1, 3)
	ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2, Slot: 0}
	sealed, err := SealShare(right, ctx, field.New(123))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShare(wrong, ctx, sealed); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("wrong key: error = %v, want ErrAuthFailed", err)
	}
}

func TestOpenRejectsReplayAcrossContext(t *testing.T) {
	s := NewStore(MasterFromSeed(7))
	key, _ := s.PairKey(1, 2)
	ctx := PacketContext{Round: 5, Sender: 1, Receiver: 2, Slot: 3}
	sealed, err := SealShare(key, ctx, field.New(42))
	if err != nil {
		t.Fatal(err)
	}
	replays := []PacketContext{
		{Round: 6, Sender: 1, Receiver: 2, Slot: 3}, // next round
		{Round: 5, Sender: 1, Receiver: 2, Slot: 4}, // different slot
		{Round: 5, Sender: 2, Receiver: 1, Slot: 3}, // reflected
	}
	for i, rctx := range replays {
		if _, err := OpenShare(key, rctx, sealed); !errors.Is(err, ErrAuthFailed) {
			t.Errorf("replay %d: error = %v, want ErrAuthFailed", i, err)
		}
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	s := NewStore(MasterFromSeed(7))
	key, _ := s.PairKey(1, 2)
	ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2}
	sealed, err := SealShare(key, ctx, field.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sealed {
		tampered := append([]byte(nil), sealed...)
		tampered[i] ^= 0x01
		if _, err := OpenShare(key, ctx, tampered); !errors.Is(err, ErrAuthFailed) {
			t.Errorf("tamper byte %d: error = %v, want ErrAuthFailed", i, err)
		}
	}
}

func TestOpenShortPacket(t *testing.T) {
	s := NewStore(MasterFromSeed(7))
	key, _ := s.PairKey(1, 2)
	if _, err := OpenShare(key, PacketContext{}, []byte{1, 2, 3}); !errors.Is(err, ErrShortPacket) {
		t.Errorf("error = %v, want ErrShortPacket", err)
	}
}

func TestSealOpenVectorRoundtrip(t *testing.T) {
	s := NewStore(MasterFromSeed(7))
	key, err := s.PairKey(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := PacketContext{Round: 1, Sender: 2, Receiver: 5, Slot: 17}
	for _, l := range []int{0, 1, 4, 14, 16, 100} {
		values := make([]field.Element, l)
		for i := range values {
			values[i] = field.New(uint64(i)*1000000007 + 7)
		}
		sealed, err := SealVector(key, ctx, values)
		if err != nil {
			t.Fatalf("L=%d: %v", l, err)
		}
		if len(sealed) != SealedVectorSize(l) {
			t.Fatalf("L=%d: sealed size = %d, want 8·L+TagSize = %d", l, len(sealed), SealedVectorSize(l))
		}
		got, err := OpenVector(key, ctx, l, sealed)
		if err != nil {
			t.Fatalf("L=%d: %v", l, err)
		}
		if len(got) != l {
			t.Fatalf("L=%d: opened %d values", l, len(got))
		}
		for i := range got {
			if got[i] != values[i] {
				t.Errorf("L=%d: value %d = %v, want %v", l, i, got[i], values[i])
			}
		}
	}
}

func TestOpenVectorRejectsTamper(t *testing.T) {
	s := NewStore(MasterFromSeed(7))
	key, _ := s.PairKey(1, 2)
	ctx := PacketContext{Round: 3, Sender: 1, Receiver: 2, Slot: 9}
	values := []field.Element{field.New(1), field.New(2), field.New(3), field.New(4)}
	sealed, err := SealVector(key, ctx, values)
	if err != nil {
		t.Fatal(err)
	}
	// One MIC covers the whole vector: flipping ANY bit of ANY element (or
	// of the tag) must reject the entire packet.
	for i := range sealed {
		tampered := append([]byte(nil), sealed...)
		tampered[i] ^= 0x01
		if _, err := OpenVector(key, ctx, 4, tampered); !errors.Is(err, ErrAuthFailed) {
			t.Errorf("tamper byte %d: error = %v, want ErrAuthFailed", i, err)
		}
	}
}

func TestOpenVectorRejectsWrongLengthContext(t *testing.T) {
	// The vector length is bound into the packet context: a packet sealed
	// for L elements must not open as any other length, even when the
	// ciphertext is long enough — truncation/extension attacks surface as
	// authentication failures, never as silently reshaped vectors.
	s := NewStore(MasterFromSeed(7))
	key, _ := s.PairKey(1, 2)
	ctx := PacketContext{Round: 3, Sender: 1, Receiver: 2, Slot: 9}
	values := make([]field.Element, 8)
	for i := range values {
		values[i] = field.New(uint64(i))
	}
	sealed, err := SealVector(key, ctx, values)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{0, 1, 4, 7} {
		if _, err := OpenVector(key, ctx, l, sealed); !errors.Is(err, ErrAuthFailed) {
			t.Errorf("open as L=%d: error = %v, want ErrAuthFailed", l, err)
		}
	}
	if _, err := OpenVector(key, ctx, 9, sealed); !errors.Is(err, ErrShortPacket) {
		t.Errorf("open as L=9: error = %v, want ErrShortPacket", err)
	}
	if _, err := OpenVector(key, ctx, 8, sealed[:len(sealed)-1]); !errors.Is(err, ErrShortPacket) {
		t.Errorf("truncated: error = %v, want ErrShortPacket", err)
	}
}

func TestOpenVectorRejectsReplayAcrossContext(t *testing.T) {
	s := NewStore(MasterFromSeed(7))
	key, _ := s.PairKey(1, 2)
	ctx := PacketContext{Round: 5, Sender: 1, Receiver: 2, Slot: 3}
	sealed, err := SealVector(key, ctx, []field.Element{field.New(42), field.New(43)})
	if err != nil {
		t.Fatal(err)
	}
	replays := []PacketContext{
		{Round: 6, Sender: 1, Receiver: 2, Slot: 3}, // next round
		{Round: 5, Sender: 1, Receiver: 2, Slot: 4}, // different slot
		{Round: 5, Sender: 2, Receiver: 1, Slot: 3}, // reflected
	}
	for i, rctx := range replays {
		if _, err := OpenVector(key, rctx, 2, sealed); !errors.Is(err, ErrAuthFailed) {
			t.Errorf("replay %d: error = %v, want ErrAuthFailed", i, err)
		}
	}
}

func TestVectorScalarDomainSeparation(t *testing.T) {
	// A scalar packet (VecLen 0 in the nonce) and a 1-element vector packet
	// are different wire objects: neither opens as the other.
	s := NewStore(MasterFromSeed(7))
	key, _ := s.PairKey(1, 2)
	ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2, Slot: 5}
	scalar, err := SealShare(key, ctx, field.New(77))
	if err != nil {
		t.Fatal(err)
	}
	vector, err := SealVector(key, ctx, []field.Element{field.New(77)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVector(key, ctx, 1, scalar); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("scalar as vector: error = %v, want ErrAuthFailed", err)
	}
	if _, err := OpenShare(key, ctx, vector); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("vector as scalar: error = %v, want ErrAuthFailed", err)
	}
}

func TestOpenVectorBadLengths(t *testing.T) {
	s := NewStore(MasterFromSeed(7))
	key, _ := s.PairKey(1, 2)
	if _, err := OpenVector(key, PacketContext{}, -1, make([]byte, 64)); !errors.Is(err, ErrBadVectorLen) {
		t.Errorf("negative: error = %v, want ErrBadVectorLen", err)
	}
	if _, err := OpenVector(key, PacketContext{}, MaxVectorElems+1, nil); !errors.Is(err, ErrBadVectorLen) {
		t.Errorf("huge: error = %v, want ErrBadVectorLen", err)
	}
	if _, err := SealVector(key, PacketContext{}, make([]field.Element, MaxVectorElems+1)); !errors.Is(err, ErrBadVectorLen) {
		t.Errorf("seal huge: error = %v, want ErrBadVectorLen", err)
	}
}

func TestCiphertextHidesValue(t *testing.T) {
	// Same value sealed in two contexts must produce different ciphertexts
	// (unique keystream per slot).
	s := NewStore(MasterFromSeed(7))
	key, _ := s.PairKey(1, 2)
	v := field.New(5)
	a, err := SealShare(key, PacketContext{Slot: 0, Sender: 1, Receiver: 2}, v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SealShare(key, PacketContext{Slot: 1, Sender: 1, Receiver: 2}, v)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a[:8], b[:8]) {
		t.Error("identical keystream across slots")
	}
}
