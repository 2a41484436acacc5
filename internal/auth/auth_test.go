package auth

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// Keys are expensive to generate; share across tests.
var (
	sdscKey = NewKey("sdsc.teragrid")
	ncsaKey = NewKey("ncsa.teragrid")
	anlKey  = NewKey("anl.teragrid")
	evilKey = NewKey("sdsc.teragrid") // right name, wrong key
)

func pairedRegistries(t *testing.T, mode CipherMode) (imp, exp *Registry) {
	t.Helper()
	imp = NewRegistry(ncsaKey, mode)
	exp = NewRegistry(sdscKey, mode)
	if err := imp.AddRemote(exp.Cluster(), exp.Key().PublicPEM()); err != nil {
		t.Fatal(err)
	}
	if err := exp.AddRemote(imp.Cluster(), imp.Key().PublicPEM()); err != nil {
		t.Fatal(err)
	}
	return imp, exp
}

func TestPublicPEMRoundTrip(t *testing.T) {
	t.Parallel()
	pem := sdscKey.PublicPEM()
	if !strings.Contains(string(pem), "BEGIN PUBLIC KEY") {
		t.Fatalf("not PEM: %s", pem)
	}
	pub, err := ParsePublicPEM(pem)
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(sdscKey.Public().N) != 0 {
		t.Error("round-tripped key differs")
	}
}

func TestKeyMadeOnFirstUse(t *testing.T) {
	t.Parallel()
	k := NewKey("lazy.teragrid")
	NewRegistry(k, AES128)
	if k.priv != nil {
		t.Fatal("key material exists before first use")
	}
	pem := k.PublicPEM()
	if k.priv == nil {
		t.Fatal("PublicPEM made no key")
	}
	if !bytes.Equal(pem, k.PublicPEM()) {
		t.Error("PublicPEM differs between calls")
	}
}

func TestConcurrentFirstUseMakesOneKey(t *testing.T) {
	t.Parallel()
	k := NewKey("racy.teragrid")
	var pems [2][]byte
	var wg sync.WaitGroup
	for i := range pems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pems[i] = k.PublicPEM()
		}()
	}
	wg.Wait()
	if !bytes.Equal(pems[0], pems[1]) {
		t.Fatal("two first uses made two keys")
	}
}

func TestParsePublicPEMRejectsGarbage(t *testing.T) {
	t.Parallel()
	if _, err := ParsePublicPEM([]byte("not pem")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestHandshakeMutualAuth(t *testing.T) {
	t.Parallel()
	imp, exp := pairedRegistries(t, AuthOnly)
	cs, ss, err := imp.Authenticate(exp)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Peer != "sdsc.teragrid" || ss.Peer != "ncsa.teragrid" {
		t.Errorf("session peers: %s / %s", cs.Peer, ss.Peer)
	}
	if cs.Mode != AuthOnly {
		t.Errorf("mode = %v", cs.Mode)
	}
}

func TestHandshakeRejectsImpostorServer(t *testing.T) {
	t.Parallel()
	// Importer trusts the real sdsc key, but an impostor with a different
	// key answers for "sdsc.teragrid".
	imp := NewRegistry(ncsaKey, AuthOnly)
	if err := imp.AddRemote("sdsc.teragrid", sdscKey.PublicPEM()); err != nil {
		t.Fatal(err)
	}
	impostor := NewRegistry(evilKey, AuthOnly)
	if err := impostor.AddRemote(imp.Cluster(), imp.Key().PublicPEM()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := imp.Authenticate(impostor); err == nil {
		t.Fatal("impostor server authenticated")
	}
}

func TestHandshakeRejectsImpostorClient(t *testing.T) {
	t.Parallel()
	// Exporter trusts real ncsa; an impostor claims to be ncsa.
	impostorKey := NewKey("ncsa.teragrid")
	impostor := NewRegistry(impostorKey, AuthOnly)
	exp := NewRegistry(sdscKey, AuthOnly)
	if err := exp.AddRemote("ncsa.teragrid", ncsaKey.PublicPEM()); err != nil {
		t.Fatal(err)
	}
	if err := impostor.AddRemote(exp.Cluster(), exp.Key().PublicPEM()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := impostor.Authenticate(exp); err == nil {
		t.Fatal("impostor client authenticated")
	}
}

func TestHandshakeRequiresMutualTrust(t *testing.T) {
	t.Parallel()
	imp := NewRegistry(ncsaKey, AuthOnly)
	exp := NewRegistry(sdscKey, AuthOnly)
	if _, _, err := imp.Authenticate(exp); err == nil {
		t.Fatal("handshake without key exchange succeeded")
	}
	// One-sided exchange is also insufficient.
	if err := imp.AddRemote(exp.Cluster(), exp.Key().PublicPEM()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := imp.Authenticate(exp); err == nil {
		t.Fatal("one-sided trust authenticated")
	}
}

func TestStricterCipherWins(t *testing.T) {
	t.Parallel()
	imp := NewRegistry(ncsaKey, AuthOnly)
	exp := NewRegistry(sdscKey, AES128)
	if err := imp.AddRemote(exp.Cluster(), exp.Key().PublicPEM()); err != nil {
		t.Fatal(err)
	}
	if err := exp.AddRemote(imp.Cluster(), imp.Key().PublicPEM()); err != nil {
		t.Fatal(err)
	}
	cs, ss, err := imp.Authenticate(exp)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Mode != AES128 || ss.Mode != AES128 {
		t.Errorf("modes = %v/%v, want AES128", cs.Mode, ss.Mode)
	}
}

func TestSealOpenAuthOnly(t *testing.T) {
	t.Parallel()
	imp, exp := pairedRegistries(t, AuthOnly)
	cs, ss, err := imp.Authenticate(exp)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("file system traffic")
	sealed := cs.Seal(msg)
	if !bytes.Equal(sealed, msg) {
		t.Error("AuthOnly should not transform payloads")
	}
	got, err := ss.Open(sealed)
	if err != nil || !bytes.Equal(got, msg) {
		t.Errorf("Open = %q, %v", got, err)
	}
}

func TestSealOpenAES(t *testing.T) {
	t.Parallel()
	imp, exp := pairedRegistries(t, AES128)
	cs, ss, err := imp.Authenticate(exp)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("block 42 contents: supernova density field")
	sealed := cs.Seal(msg)
	if bytes.Contains(sealed, msg) {
		t.Error("AES mode left plaintext visible")
	}
	got, err := ss.Open(sealed)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("Open = %q, %v", got, err)
	}
	// And the reverse direction shares the key.
	back, err := cs.Open(ss.Seal(msg))
	if err != nil || !bytes.Equal(back, msg) {
		t.Fatalf("reverse Open = %q, %v", back, err)
	}
}

func TestTamperDetected(t *testing.T) {
	t.Parallel()
	imp, exp := pairedRegistries(t, AES128)
	cs, ss, err := imp.Authenticate(exp)
	if err != nil {
		t.Fatal(err)
	}
	sealed := cs.Seal([]byte("pay me"))
	sealed[20] ^= 1
	if _, err := ss.Open(sealed); err == nil {
		t.Fatal("tampered payload accepted")
	}
}

func TestGrants(t *testing.T) {
	t.Parallel()
	imp, exp := pairedRegistries(t, AuthOnly)
	if err := exp.Grant("gpfs-wan", imp.Cluster(), ReadOnly); err != nil {
		t.Fatal(err)
	}
	a := exp.AccessFor("gpfs-wan", imp.Cluster())
	if !a.CanRead() || a.CanWrite() {
		t.Errorf("access = %v, want ro", a)
	}
	if exp.AccessFor("other-fs", imp.Cluster()) != None {
		t.Error("ungranted fs should be None")
	}
	if err := exp.Grant("gpfs-wan", "unknown.cluster", ReadWrite); err == nil {
		t.Error("grant to untrusted cluster accepted")
	}
	// Upgrade to rw.
	if err := exp.Grant("gpfs-wan", imp.Cluster(), ReadWrite); err != nil {
		t.Fatal(err)
	}
	if !exp.AccessFor("gpfs-wan", imp.Cluster()).CanWrite() {
		t.Error("rw upgrade lost")
	}
}

func TestRemoveRemoteDropsGrants(t *testing.T) {
	t.Parallel()
	imp, exp := pairedRegistries(t, AuthOnly)
	if err := exp.Grant("gpfs-wan", imp.Cluster(), ReadWrite); err != nil {
		t.Fatal(err)
	}
	exp.RemoveRemote(imp.Cluster())
	if exp.Trusted(imp.Cluster()) {
		t.Error("still trusted after remove")
	}
	if exp.AccessFor("gpfs-wan", imp.Cluster()) != None {
		t.Error("grants survive remove")
	}
	if _, _, err := imp.Authenticate(exp); err == nil {
		t.Error("removed cluster still authenticates")
	}
}

func TestRemotesSorted(t *testing.T) {
	t.Parallel()
	exp := NewRegistry(sdscKey, AuthOnly)
	_ = exp.AddRemote("ncsa", ncsaKey.PublicPEM())
	_ = exp.AddRemote("anl", anlKey.PublicPEM())
	got := exp.Remotes()
	if len(got) != 2 || got[0] != "anl" || got[1] != "ncsa" {
		t.Errorf("Remotes = %v", got)
	}
}

// Property: Seal/Open round-trips arbitrary payloads in both modes.
func TestPropertySealRoundTrip(t *testing.T) {
	t.Parallel()
	imp, exp := pairedRegistries(t, AES128)
	cs, ss, err := imp.Authenticate(exp)
	if err != nil {
		t.Fatal(err)
	}
	auth := &Session{Local: "a", Peer: "b", Mode: AuthOnly}
	f := func(payload []byte) bool {
		got, err := ss.Open(cs.Seal(payload))
		if err != nil || !bytes.Equal(got, payload) {
			return false
		}
		got2, err := auth.Open(auth.Seal(payload))
		return err == nil && bytes.Equal(got2, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
