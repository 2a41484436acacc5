package auth

import (
	"fmt"
	"testing"
	"testing/quick"
)

func teraGridLegacy(t *testing.T) *LegacyTrust {
	t.Helper()
	lt := NewLegacyTrust()
	mk := func(name string, n int, shell RshKind) LegacyDomain {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("%s-n%02d", name, i)
		}
		return LegacyDomain{Name: name, Nodes: nodes, Shell: shell}
	}
	// The SC'04 StorCloud mix: SLES IA64 clusters (ssh) in two domains
	// plus an AIX/CSM Power5 cluster (rsh).
	for _, d := range []LegacyDomain{
		mk("sdsc", 8, Ssh),
		mk("ncsa", 6, Ssh),
		mk("aixp5", 4, Rsh),
	} {
		if err := lt.AddDomain(d); err != nil {
			t.Fatal(err)
		}
	}
	return lt
}

func TestLegacyIntraClusterTrust(t *testing.T) {
	t.Parallel()
	lt := teraGridLegacy(t)
	if err := lt.TrustAll("sdsc", "sdsc"); err != nil {
		t.Fatal(err)
	}
	if !lt.Trusted("sdsc-n00", "sdsc-n07") {
		t.Error("intra-cluster trust missing")
	}
	if lt.Trusted("sdsc-n00", "sdsc-n00") {
		t.Error("self-edge recorded")
	}
	// 8 nodes all-to-all minus self: 8*7.
	if got := lt.RootEdges(); got != 56 {
		t.Errorf("edges = %d, want 56", got)
	}
	if lt.CrossDomainEdges() != 0 {
		t.Error("intra-cluster trust counted as cross-domain")
	}
}

func TestLegacyMultiClusterExplosion(t *testing.T) {
	t.Parallel()
	// The GPFS 2.3 *development* multi-cluster scheme: every cluster
	// needs passwordless root everywhere.
	lt := teraGridLegacy(t)
	for _, a := range lt.Domains() {
		for _, b := range lt.Domains() {
			if err := lt.TrustAll(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 18 nodes total: 18*17 edges.
	if got := lt.RootEdges(); got != 18*17 {
		t.Errorf("edges = %d, want %d", got, 18*17)
	}
	cross := lt.CrossDomainEdges()
	if cross != 18*17-(8*7+6*5+4*3) {
		t.Errorf("cross-domain edges = %d", cross)
	}
	// Versus the GA redesign: 3 keypairs.
	if lt.KeypairsForRSAModel() != 3 {
		t.Errorf("keypairs = %d", lt.KeypairsForRSAModel())
	}
	if lt.KeypairsForRSAModel()*50 > lt.RootEdges() {
		t.Error("the whole point: keypairs must be vastly fewer than root edges")
	}
}

func TestLegacyShellMismatch(t *testing.T) {
	t.Parallel()
	lt := teraGridLegacy(t)
	mis := lt.ShellMismatch()
	// aixp5 (rsh) clashes with both ssh domains.
	if len(mis) != 2 {
		t.Errorf("mismatches = %v", mis)
	}
}

func TestMmdshRequiresFullTrust(t *testing.T) {
	t.Parallel()
	lt := teraGridLegacy(t)
	if err := lt.TrustAll("sdsc", "sdsc"); err != nil {
		t.Fatal(err)
	}
	targets := append([]string{}, lt.domains["sdsc"].Nodes...)
	if refused := lt.Mmdsh("sdsc-n00", targets); len(refused) != 0 {
		t.Errorf("intra-cluster mmdsh refused: %v", refused)
	}
	// Cross-domain mmdsh without trust: all foreign nodes refuse.
	targets = append(targets, lt.domains["ncsa"].Nodes...)
	refused := lt.Mmdsh("sdsc-n00", targets)
	if len(refused) != 6 {
		t.Errorf("refused = %v, want all 6 ncsa nodes", refused)
	}
	// Grant and retry.
	if err := lt.TrustAll("sdsc", "ncsa"); err != nil {
		t.Fatal(err)
	}
	if refused := lt.Mmdsh("sdsc-n00", targets); len(refused) != 0 {
		t.Errorf("post-grant mmdsh refused: %v", refused)
	}
}

func TestLegacyErrors(t *testing.T) {
	t.Parallel()
	lt := NewLegacyTrust()
	if err := lt.AddDomain(LegacyDomain{Name: "empty"}); err == nil {
		t.Error("empty domain accepted")
	}
	if err := lt.AddDomain(LegacyDomain{Name: "a", Nodes: []string{"n"}}); err != nil {
		t.Fatal(err)
	}
	if err := lt.AddDomain(LegacyDomain{Name: "a", Nodes: []string{"m"}}); err == nil {
		t.Error("duplicate domain accepted")
	}
	if err := lt.TrustAll("a", "nope"); err == nil {
		t.Error("unknown domain accepted")
	}
}

// Property: with full mesh trust over k domains of sizes n_i, edges =
// N(N-1) where N = sum n_i, and the RSA model always needs exactly k
// secrets.
func TestPropertyLegacyEdgeCount(t *testing.T) {
	t.Parallel()
	f := func(sizesRaw []uint8) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 5 {
			return true
		}
		lt := NewLegacyTrust()
		total := 0
		for i, raw := range sizesRaw {
			n := int(raw%6) + 1
			total += n
			nodes := make([]string, n)
			for j := range nodes {
				nodes[j] = fmt.Sprintf("d%d-n%d", i, j)
			}
			if err := lt.AddDomain(LegacyDomain{Name: fmt.Sprintf("d%d", i), Nodes: nodes}); err != nil {
				return false
			}
		}
		for _, a := range lt.Domains() {
			for _, b := range lt.Domains() {
				if err := lt.TrustAll(a, b); err != nil {
					return false
				}
			}
		}
		return lt.RootEdges() == total*(total-1) &&
			lt.KeypairsForRSAModel() == len(sizesRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
