// Package seal implements the page sealing scheme used by both the
// simulated SGX hardware paging (EWB/ELDU) and by SUVM's software
// paging: AES-GCM encryption with a fresh random-start counter nonce per
// seal, with the nonce kept in trusted memory by the caller so that
// replaying a stale ciphertext fails authentication (freshness), and a
// 128-bit GCM tag appended to the ciphertext (integrity).
//
// The cryptography is real — tampered or replayed pages genuinely fail
// to open — while the cycle cost charged to the simulated thread follows
// the AES-NI cost model rather than host wall-clock time.
//
// Trust domain: seal is trusted enclave code and, with suvm, one of the
// two sanctioned facades through which trusted code may touch raw
// untrusted host memory (ciphertext lands there by design). The cycle
// model is deterministic; the crypto nonces draw from crypto/rand,
// which affects ciphertext bytes but never cycle charges.
//
//eleos:trusted
//eleos:facade
//eleos:deterministic
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"eleos/internal/cycles"
)

// NonceSize is the AES-GCM nonce length in bytes.
const NonceSize = 12

// TagSize is the GCM authentication tag length in bytes.
const TagSize = 16

// Overhead is the ciphertext expansion of one sealed blob.
const Overhead = TagSize

// ErrCorrupt is returned when a sealed blob fails authentication:
// either the ciphertext was tampered with, or a stale blob was replayed
// against a newer trusted nonce.
var ErrCorrupt = errors.New("seal: authentication failed (tampered or replayed data)")

// Nonce is the per-seal nonce kept in trusted memory.
type Nonce [NonceSize]byte

// Sealer seals and opens fixed-key blobs. The key corresponds to the
// paper's "random per-application key stored in the EPC". A Sealer is
// safe for concurrent use: nonce generation is atomic and cipher.AEAD
// is stateless.
type Sealer struct {
	model *cycles.Model
	aead  cipher.AEAD
	// nonce = base (4 bytes) || counter (8 bytes); counter increments
	// per seal so nonces never repeat under one key.
	base    [4]byte
	counter atomic.Uint64
}

// New creates a Sealer with a fresh random 128-bit key, as done at
// enclave start. The model may be nil, in which case no cycles are
// charged (useful for tests that only exercise the crypto).
func New(model *cycles.Model) (*Sealer, error) {
	var key [16]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, fmt.Errorf("seal: generating key: %w", err)
	}
	return NewWithKey(model, key[:])
}

// NewWithKey creates a Sealer over the provided AES key (16, 24 or 32
// bytes). Intended for tests that need reproducible ciphertexts.
func NewWithKey(model *cycles.Model, key []byte) (*Sealer, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("seal: creating cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal: creating GCM: %w", err)
	}
	s := &Sealer{model: model, aead: aead}
	if _, err := rand.Read(s.base[:]); err != nil {
		return nil, fmt.Errorf("seal: generating nonce base: %w", err)
	}
	return s, nil
}

// Seal encrypts and authenticates plaintext, binding it to aad (callers
// pass the page's backing-store address so blobs cannot be swapped
// between locations). It returns the fresh nonce — which the caller must
// keep in trusted memory — and the ciphertext with the tag appended,
// written into dst if it has sufficient capacity. The cycle cost is
// charged to th if both th and the model are non-nil.
func (s *Sealer) Seal(th *cycles.Thread, dst, plaintext, aad []byte) (Nonce, []byte) {
	var n Nonce
	copy(n[:4], s.base[:])
	binary.LittleEndian.PutUint64(n[4:], s.counter.Add(1))
	ct := s.aead.Seal(dst[:0], n[:], plaintext, aad)
	s.charge(th, len(plaintext))
	return n, ct
}

// Open decrypts and verifies a blob sealed with nonce n and associated
// data aad, appending the plaintext to dst[:0]. It returns ErrCorrupt if
// authentication fails.
func (s *Sealer) Open(th *cycles.Thread, dst, ciphertext, aad []byte, n Nonce) ([]byte, error) {
	pt, err := s.aead.Open(dst[:0], n[:], ciphertext, aad)
	if err != nil {
		return nil, ErrCorrupt
	}
	s.charge(th, len(pt))
	return pt, nil
}

func (s *Sealer) charge(th *cycles.Thread, n int) {
	if th != nil && s.model != nil {
		th.Charge(s.model.AESCycles(n))
	}
}

// SealedLen returns the ciphertext length for a plaintext of n bytes.
func SealedLen(n int) int { return n + Overhead }

// AddrAAD encodes a backing-store address as associated data, binding a
// sealed page to its location.
func AddrAAD(addr uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], addr)
	return b[:]
}
