package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gfs/internal/units"
)

func TestTokenCoversAfterInsert(t *testing.T) {
	t.Parallel()
	tt := newTokenTable()
	tt.insert(1, "a", 0, 100, TokShared)
	if !tt.holderCovers(1, "a", 0, 100, TokShared) {
		t.Fatal("inserted range not covered")
	}
	if tt.holderCovers(1, "a", 0, 101, TokShared) {
		t.Fatal("coverage beyond range")
	}
	if tt.holderCovers(1, "a", 0, 100, TokExclusive) {
		t.Fatal("shared token satisfies exclusive")
	}
	if tt.holderCovers(2, "a", 0, 10, TokShared) {
		t.Fatal("coverage across inodes")
	}
}

func TestTokenMergeAdjacent(t *testing.T) {
	t.Parallel()
	tt := newTokenTable()
	tt.insert(1, "a", 0, 100, TokShared)
	tt.insert(1, "a", 100, 200, TokShared)
	if got := len(tt.byInode[1]); got != 1 {
		t.Fatalf("adjacent same-mode ranges not merged: %d ranges", got)
	}
	if !tt.holderCovers(1, "a", 0, 200, TokShared) {
		t.Fatal("merged range not covered")
	}
}

func TestTokenSharedNoConflict(t *testing.T) {
	t.Parallel()
	tt := newTokenTable()
	tt.insert(1, "a", 0, 100, TokShared)
	if len(tt.conflicts(1, 50, 150, TokShared, "b")) != 0 {
		t.Fatal("shared/shared flagged as conflict")
	}
	if len(tt.conflicts(1, 50, 150, TokExclusive, "b")) != 1 {
		t.Fatal("exclusive vs shared not flagged")
	}
}

func TestTokenExclusiveConflicts(t *testing.T) {
	t.Parallel()
	tt := newTokenTable()
	tt.insert(1, "a", 0, 100, TokExclusive)
	if len(tt.conflicts(1, 50, 150, TokShared, "b")) != 1 {
		t.Fatal("shared vs exclusive not flagged")
	}
	// Non-overlapping: no conflict.
	if len(tt.conflicts(1, 100, 150, TokShared, "b")) != 0 {
		t.Fatal("adjacent ranges flagged as conflict")
	}
	// Own token never conflicts.
	if len(tt.conflicts(1, 0, 100, TokExclusive, "a")) != 0 {
		t.Fatal("self-conflict")
	}
}

func TestTokenCarveSplits(t *testing.T) {
	t.Parallel()
	tt := newTokenTable()
	tt.insert(1, "a", 0, 300, TokShared)
	tt.carve(1, "a", 100, 200)
	if tt.holderCovers(1, "a", 100, 200, TokShared) {
		t.Fatal("carved range still covered")
	}
	if !tt.holderCovers(1, "a", 0, 100, TokShared) || !tt.holderCovers(1, "a", 200, 300, TokShared) {
		t.Fatal("carve destroyed surrounding coverage")
	}
}

func TestTokenUpgradeSharedToExclusive(t *testing.T) {
	t.Parallel()
	tt := newTokenTable()
	tt.insert(1, "a", 0, 100, TokShared)
	tt.insert(1, "a", 25, 75, TokExclusive)
	if !tt.holderCovers(1, "a", 25, 75, TokExclusive) {
		t.Fatal("upgraded range not exclusive")
	}
	if !tt.holderCovers(1, "a", 0, 100, TokShared) {
		t.Fatal("shared coverage lost on upgrade")
	}
}

func TestTokenDropHolder(t *testing.T) {
	t.Parallel()
	tt := newTokenTable()
	tt.insert(1, "a", 0, 100, TokShared)
	tt.insert(1, "b", 0, 100, TokShared)
	tt.insert(2, "a", 0, 50, TokExclusive)
	tt.dropHolder("a")
	if tt.holderCovers(1, "a", 0, 10, TokShared) || tt.holderCovers(2, "a", 0, 10, TokExclusive) {
		t.Fatal("dropped holder still covered")
	}
	if !tt.holderCovers(1, "b", 0, 100, TokShared) {
		t.Fatal("other holder lost tokens")
	}
}

// Property: after arbitrary insert/carve traffic, no two different holders
// ever hold overlapping ranges where either is exclusive — provided every
// insert carves conflicting holders first (as serveToken does).
func TestPropertyTokenTableNoIllegalOverlap(t *testing.T) {
	t.Parallel()
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tt := newTokenTable()
		holders := []string{"a", "b", "c"}
		n := int(nRaw%40) + 5
		for i := 0; i < n; i++ {
			h := holders[rng.Intn(len(holders))]
			start := units.Bytes(rng.Intn(1000))
			end := start + units.Bytes(rng.Intn(500)+1)
			mode := TokenMode(rng.Intn(2))
			// Emulate the manager: carve conflicting holders, then insert.
			for other, span := range tt.conflicts(1, start, end, mode, h) {
				_ = span
				tt.carve(1, other, start, end)
			}
			tt.insert(1, h, start, end, mode)
		}
		// Check invariant pairwise.
		rs := tt.byInode[1]
		for i := range rs {
			for j := range rs {
				if i == j || rs[i].Holder == rs[j].Holder {
					continue
				}
				if overlaps(rs[i].Start, rs[i].End, rs[j].Start, rs[j].End) &&
					(rs[i].Mode == TokExclusive || rs[j].Mode == TokExclusive) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: carve exactly removes [start,end) and nothing else.
func TestPropertyCarveExact(t *testing.T) {
	t.Parallel()
	f := func(aRaw, bRaw, cRaw, dRaw uint16) bool {
		a, b := units.Bytes(aRaw), units.Bytes(aRaw)+units.Bytes(bRaw)+1
		c, d := units.Bytes(cRaw), units.Bytes(cRaw)+units.Bytes(dRaw)+1
		tt := newTokenTable()
		tt.insert(1, "h", a, b, TokShared)
		tt.carve(1, "h", c, d)
		// Every point in [a,b)\[c,d) must remain covered; every point in
		// [c,d) must not be. Sample boundaries.
		pts := []units.Bytes{a, b - 1, c, d - 1, (a + b) / 2, (c + d) / 2}
		for _, pt := range pts {
			in := pt >= a && pt < b
			cut := pt >= c && pt < d
			got := tt.holderCovers(1, "h", pt, pt+1, TokShared)
			if got != (in && !cut) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
