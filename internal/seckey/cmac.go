package seckey

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
)

// AES-CMAC (RFC 4493): message authentication built solely on the AES block
// cipher, matching what a constrained node with an AES peripheral would use
// instead of HMAC-SHA256. Link.cmac computes the MAC itself from the subkeys
// derived here.

// cmacSubkeys derives the two CMAC subkeys K1, K2 from the block cipher.
func cmacSubkeys(b cipher.Block) (k1, k2 [aes.BlockSize]byte) {
	var l [aes.BlockSize]byte
	b.Encrypt(l[:], l[:])
	k1 = dbl(l)
	k2 = dbl(k1)
	return k1, k2
}

// dbl doubles a value in GF(2^128) with the CMAC reduction constant 0x87.
func dbl(in [aes.BlockSize]byte) [aes.BlockSize]byte {
	var out [aes.BlockSize]byte
	var carry byte
	for i := aes.BlockSize - 1; i >= 0; i-- {
		out[i] = in[i]<<1 | carry
		carry = in[i] >> 7
	}
	if carry != 0 {
		out[aes.BlockSize-1] ^= 0x87
	}
	return out
}

// tagEqual compares MAC tags in constant time.
func tagEqual(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}
