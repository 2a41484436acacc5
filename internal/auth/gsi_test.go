package auth

import (
	"testing"
	"time"
)

var testTime = time.Date(2005, 11, 14, 0, 0, 0, 0, time.UTC) // SC'05 week

func newGrid(t *testing.T) (*CA, *IdentityService, *Credential) {
	t.Helper()
	ca, err := NewCA("TeraGrid CA")
	if err != nil {
		t.Fatal(err)
	}
	ids := NewIdentityService(ca)
	cred, err := ca.Issue("Jane Researcher", "SDSC")
	if err != nil {
		t.Fatal(err)
	}
	return ca, ids, cred
}

func TestDNFormat(t *testing.T) {
	t.Parallel()
	_, _, cred := newGrid(t)
	if got := cred.DN(); got != "/O=SDSC/CN=Jane Researcher" {
		t.Errorf("DN = %q", got)
	}
}

func TestVerifyIssuedCert(t *testing.T) {
	t.Parallel()
	ca, _, cred := newGrid(t)
	if err := ca.Verify(cred.Cert, testTime); err != nil {
		t.Fatalf("issued cert rejected: %v", err)
	}
}

func TestVerifyRejectsForeignCert(t *testing.T) {
	t.Parallel()
	ca, _, _ := newGrid(t)
	otherCA, err := NewCA("Rogue CA")
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := otherCA.Issue("Mallory", "Rogue")
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.Verify(rogue.Cert, testTime); err == nil {
		t.Fatal("foreign cert accepted")
	}
}

func TestVerifyRejectsExpired(t *testing.T) {
	t.Parallel()
	ca, _, cred := newGrid(t)
	if err := ca.Verify(cred.Cert, time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)); err == nil {
		t.Fatal("expired cert accepted")
	}
}

func TestGridMapBijective(t *testing.T) {
	t.Parallel()
	g := NewGridMap("sdsc")
	if err := g.Map("/O=SDSC/CN=Jane", 501); err != nil {
		t.Fatal(err)
	}
	if err := g.Map("/O=SDSC/CN=Jane", 501); err != nil {
		t.Fatalf("idempotent re-map rejected: %v", err)
	}
	if err := g.Map("/O=SDSC/CN=Jane", 502); err == nil {
		t.Error("DN remap to second uid accepted")
	}
	if err := g.Map("/O=NCSA/CN=Bob", 501); err == nil {
		t.Error("uid shared by second DN accepted")
	}
	uid, ok := g.UIDFor("/O=SDSC/CN=Jane")
	if !ok || uid != 501 {
		t.Errorf("UIDFor = %d, %v", uid, ok)
	}
	dn, ok := g.DNFor(501)
	if !ok || dn != "/O=SDSC/CN=Jane" {
		t.Errorf("DNFor = %q, %v", dn, ok)
	}
}

func TestCrossSiteOwnership(t *testing.T) {
	t.Parallel()
	// The paper's scenario: Jane is uid 501 at SDSC, 7044 at NCSA, 12 at
	// ANL. A file she writes via SDSC must appear as hers at every site.
	_, ids, cred := newGrid(t)
	dn := cred.DN()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ids.Site("sdsc").Map(dn, 501))
	must(ids.Site("ncsa").Map(dn, 7044))
	must(ids.Site("anl").Map(dn, 12))

	owner, err := ids.CanonicalOwner("sdsc", 501, cred, testTime)
	if err != nil {
		t.Fatal(err)
	}
	if owner != dn {
		t.Errorf("owner = %q", owner)
	}
	for site, want := range map[string]int{"sdsc": 501, "ncsa": 7044, "anl": 12} {
		uid, err := ids.LocalUID(site, owner)
		if err != nil {
			t.Errorf("%s: %v", site, err)
			continue
		}
		if uid != want {
			t.Errorf("%s uid = %d, want %d", site, uid, want)
		}
	}
}

func TestCanonicalOwnerRejectsWrongUID(t *testing.T) {
	t.Parallel()
	_, ids, cred := newGrid(t)
	if err := ids.Site("sdsc").Map(cred.DN(), 501); err != nil {
		t.Fatal(err)
	}
	if _, err := ids.CanonicalOwner("sdsc", 999, cred, testTime); err == nil {
		t.Fatal("uid spoof accepted")
	}
}

func TestCanonicalOwnerRejectsUnmappedUser(t *testing.T) {
	t.Parallel()
	ca, ids, _ := newGrid(t)
	ids.Site("sdsc") // exists but empty
	cred, err := ca.Issue("Nobody", "SDSC")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ids.CanonicalOwner("sdsc", 1, cred, testTime); err == nil {
		t.Fatal("unmapped DN accepted")
	}
}

func TestLocalUIDUnknownSite(t *testing.T) {
	t.Parallel()
	_, ids, cred := newGrid(t)
	if _, err := ids.LocalUID("psc", cred.DN()); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestSitesSorted(t *testing.T) {
	t.Parallel()
	_, ids, _ := newGrid(t)
	ids.Site("sdsc")
	ids.Site("anl")
	ids.Site("ncsa")
	got := ids.Sites()
	want := []string{"anl", "ncsa", "sdsc"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sites = %v", got)
		}
	}
}
