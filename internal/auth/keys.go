// Package auth implements the GPFS 2.3-style multi-cluster trust model the
// paper describes in §6, with real cryptography from the standard library:
// per-cluster RSA keypairs exchanged out of band (mmauth), challenge-
// response cluster authentication, optional AES encryption of file system
// traffic (the cipherList option), per-filesystem ro/rw grants, and
// GSI-style X.509 identities with grid-mapfile UID mapping (gsi.go).
package auth

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"sync"
)

// CipherMode mirrors the GPFS cipherList configuration option.
type CipherMode int

const (
	// AuthOnly authenticates the peer cluster but leaves file system
	// traffic in the clear (cipherList AUTHONLY).
	AuthOnly CipherMode = iota
	// AES128 authenticates and encrypts all traffic.
	AES128
)

func (m CipherMode) String() string {
	if m == AES128 {
		return "AES128"
	}
	return "AUTHONLY"
}

// ClusterKey is a cluster's RSA identity, the keypair mmauth genkey
// makes. The pair is generated on first use — the first public-key
// export or handshake — since a cluster that never joins a multi-cluster
// setup never needs one. Each key is fresh and random.
type ClusterKey struct {
	Cluster string
	once    sync.Once
	priv    *rsa.PrivateKey
}

// keyBits is small enough to keep tests fast and large enough to be real.
const keyBits = 1024

// NewKey returns the named cluster's identity; its keypair is generated
// when first used.
func NewKey(cluster string) *ClusterKey { return &ClusterKey{Cluster: cluster} }

// private returns the keypair, generating it on the first call; callers
// racing on the first use all get the one key. Generation fails only
// when the runtime refuses keyBits (a FIPS-only mode), a configuration
// no run of this package supports, so it panics.
func (k *ClusterKey) private() *rsa.PrivateKey {
	k.once.Do(func() {
		priv, err := rsa.GenerateKey(rand.Reader, keyBits)
		if err != nil {
			panic(fmt.Sprintf("auth: generating key for %s: %v", k.Cluster, err))
		}
		k.priv = priv
	})
	return k.priv
}

// Public returns the shareable public half.
func (k *ClusterKey) Public() *rsa.PublicKey { return &k.private().PublicKey }

// PublicPEM renders the public key as the PEM file administrators exchange
// out of band (the paper: "via an out-of-band mechanism such as e-mail").
func (k *ClusterKey) PublicPEM() []byte {
	der, err := x509.MarshalPKIXPublicKey(k.Public())
	if err != nil {
		panic(err) // cannot fail for an RSA key we generated
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: der})
}

// ParsePublicPEM reads a key produced by PublicPEM.
func ParsePublicPEM(data []byte) (*rsa.PublicKey, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "PUBLIC KEY" {
		return nil, errors.New("auth: not a public key PEM")
	}
	pub, err := x509.ParsePKIXPublicKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("auth: parsing public key: %w", err)
	}
	rpub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("auth: unsupported key type %T", pub)
	}
	return rpub, nil
}

// sign produces an RSA-PKCS1v15-SHA256 signature over msg.
func (k *ClusterKey) sign(msg []byte) ([]byte, error) {
	h := sha256.Sum256(msg)
	return rsa.SignPKCS1v15(rand.Reader, k.private(), crypto.SHA256, h[:])
}

func verify(pub *rsa.PublicKey, msg, sig []byte) error {
	h := sha256.Sum256(msg)
	return rsa.VerifyPKCS1v15(pub, crypto.SHA256, h[:], sig)
}

// Session is an authenticated (and optionally encrypted) channel between
// two clusters, produced by a completed handshake.
type Session struct {
	Local, Peer string
	Mode        CipherMode
	key         []byte // AES key, nil in AuthOnly mode
	sealSeq     uint64
	openSeq     uint64
}

// Handshake state: the importing cluster (client) contacts a designated
// node of the exporting cluster (server).
//
// Protocol:
//  1. client -> server: Hello{cluster, nonceC}
//  2. server -> client: Challenge{cluster, nonceS, sig_S(nonceC||nonceS||names)}
//  3. client -> server: Proof{sig_C(nonceS||nonceC||names), enc_S(sessionKey)}
//
// Both sides end with a shared session key; the server knows the client
// holds the private key registered by mmauth add, and vice versa.

// Hello opens a handshake.
type Hello struct {
	Cluster string
	NonceC  []byte
}

// Challenge is the server's reply.
type Challenge struct {
	Cluster string
	NonceS  []byte
	Sig     []byte
}

// Proof is the client's final message.
type Proof struct {
	Cluster string
	Sig     []byte
	EncKey  []byte
}

func nonce() []byte {
	b := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		panic(err)
	}
	return b
}

func transcript(nc, ns []byte, client, server string) []byte {
	msg := make([]byte, 0, len(nc)+len(ns)+len(client)+len(server)+2)
	msg = append(msg, nc...)
	msg = append(msg, ns...)
	msg = append(msg, client...)
	msg = append(msg, 0)
	msg = append(msg, server...)
	msg = append(msg, 0)
	return msg
}

// ClientHello starts a handshake from the importing cluster.
func ClientHello(k *ClusterKey) (Hello, []byte) {
	nc := nonce()
	return Hello{Cluster: k.Cluster, NonceC: nc}, nc
}

// ServerChallenge answers a Hello. The server must already trust the
// client cluster's public key (clientPub); it signs the transcript so the
// client can verify the server's identity too.
func ServerChallenge(k *ClusterKey, hello Hello) (Challenge, []byte, error) {
	if len(hello.NonceC) < 16 {
		return Challenge{}, nil, errors.New("auth: short client nonce")
	}
	ns := nonce()
	sig, err := k.sign(transcript(hello.NonceC, ns, hello.Cluster, k.Cluster))
	if err != nil {
		return Challenge{}, nil, err
	}
	return Challenge{Cluster: k.Cluster, NonceS: ns, Sig: sig}, ns, nil
}

// ClientProof verifies the server's challenge and produces the client's
// proof plus the client-side session.
func ClientProof(k *ClusterKey, serverPub *rsa.PublicKey, nc []byte, ch Challenge, mode CipherMode) (Proof, *Session, error) {
	if err := verify(serverPub, transcript(nc, ch.NonceS, k.Cluster, ch.Cluster), ch.Sig); err != nil {
		return Proof{}, nil, fmt.Errorf("auth: server %s failed verification: %w", ch.Cluster, err)
	}
	sig, err := k.sign(transcript(ch.NonceS, nc, ch.Cluster, k.Cluster))
	if err != nil {
		return Proof{}, nil, err
	}
	var key, enc []byte
	if mode == AES128 {
		key = make([]byte, 16)
		if _, err := io.ReadFull(rand.Reader, key); err != nil {
			panic(err)
		}
		enc, err = rsa.EncryptOAEP(sha256.New(), rand.Reader, serverPub, key, []byte("gfs-session"))
		if err != nil {
			return Proof{}, nil, err
		}
	}
	sess := &Session{Local: k.Cluster, Peer: ch.Cluster, Mode: mode, key: key}
	return Proof{Cluster: k.Cluster, Sig: sig, EncKey: enc}, sess, nil
}

// ServerAccept verifies the client's proof and produces the server-side
// session.
func ServerAccept(k *ClusterKey, clientPub *rsa.PublicKey, hello Hello, ns []byte, proof Proof, mode CipherMode) (*Session, error) {
	if err := verify(clientPub, transcript(ns, hello.NonceC, k.Cluster, proof.Cluster), proof.Sig); err != nil {
		return nil, fmt.Errorf("auth: client %s failed verification: %w", proof.Cluster, err)
	}
	var key []byte
	if mode == AES128 {
		var err error
		key, err = rsa.DecryptOAEP(sha256.New(), rand.Reader, k.private(), proof.EncKey, []byte("gfs-session"))
		if err != nil {
			return nil, fmt.Errorf("auth: decrypting session key: %w", err)
		}
	}
	return &Session{Local: k.Cluster, Peer: proof.Cluster, Mode: mode, key: key}, nil
}

// Seal protects an outgoing payload according to the session's cipher
// mode: a no-op copy for AuthOnly; AES-CTR plus HMAC-SHA256 for AES128.
func (s *Session) Seal(plaintext []byte) []byte {
	if s.Mode == AuthOnly {
		out := make([]byte, len(plaintext))
		copy(out, plaintext)
		return out
	}
	block, err := aes.NewCipher(s.key)
	if err != nil {
		panic(err)
	}
	iv := make([]byte, aes.BlockSize)
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		panic(err)
	}
	out := make([]byte, aes.BlockSize+len(plaintext)+sha256.Size)
	copy(out, iv)
	cipher.NewCTR(block, iv).XORKeyStream(out[aes.BlockSize:aes.BlockSize+len(plaintext)], plaintext)
	mac := hmac.New(sha256.New, s.key)
	mac.Write(out[:aes.BlockSize+len(plaintext)])
	copy(out[aes.BlockSize+len(plaintext):], mac.Sum(nil))
	return out
}

// Open reverses Seal, failing on any tampering in AES128 mode.
func (s *Session) Open(sealed []byte) ([]byte, error) {
	if s.Mode == AuthOnly {
		out := make([]byte, len(sealed))
		copy(out, sealed)
		return out, nil
	}
	if len(sealed) < aes.BlockSize+sha256.Size {
		return nil, errors.New("auth: sealed payload too short")
	}
	body := sealed[:len(sealed)-sha256.Size]
	mac := hmac.New(sha256.New, s.key)
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), sealed[len(body):]) {
		return nil, errors.New("auth: payload MAC mismatch")
	}
	block, err := aes.NewCipher(s.key)
	if err != nil {
		panic(err)
	}
	out := make([]byte, len(body)-aes.BlockSize)
	cipher.NewCTR(block, body[:aes.BlockSize]).XORKeyStream(out, body[aes.BlockSize:])
	return out, nil
}
