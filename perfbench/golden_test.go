package main

import (
	"strings"
	"testing"

	"match/internal/core"
)

func TestDigestCoversEveryField(t *testing.T) {
	bd := core.Breakdown{Total: 1000, Signature: 0.5, Completed: true}
	base := digest(bd)
	if digest(bd) != base {
		t.Fatal("digest is not deterministic")
	}
	changed := bd
	changed.CkptBytesAt[3] = 1
	if digest(changed) == base {
		t.Fatal("digest ignores a per-level checkpoint byte count")
	}
	changed = bd
	changed.Signature = 0.5000000000000001
	if digest(changed) == base {
		t.Fatal("digest ignores the last bit of the signature")
	}
}

func TestCompareGolden(t *testing.T) {
	want := map[string]string{"HPCCG/restart/k0": "aa", "HPCCG/restart/k1": "bb"}
	if bad := compareGolden(want, map[string]string{"HPCCG/restart/k0": "aa", "HPCCG/restart/k1": "bb"}); len(bad) != 0 {
		t.Fatalf("equal digests reported %v", bad)
	}
	bad := compareGolden(want, map[string]string{"HPCCG/restart/k1": "cc", "LULESH/ulfm/k0": "dd"})
	if len(bad) != 2 || !strings.Contains(bad[0], "HPCCG/restart/k1: digest cc, golden bb") ||
		!strings.Contains(bad[1], "LULESH/ulfm/k0: no golden digest") {
		t.Fatalf("mismatches = %q", bad)
	}
}

func TestGoldenFilesMatchWorkloads(t *testing.T) {
	for _, spec := range []sweepSpec{kernelsSpec(defaultSeed), eventsSpec(defaultSeed)} {
		g, err := loadGolden(spec.name)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, c := range spec.req.Configs() {
			ids = append(ids, cellID(c))
		}
		var golden []string
		for id := range g.Cells {
			golden = append(golden, id)
		}
		if len(golden) != len(ids) || g.Seed != defaultSeed || g.Workload != spec.name {
			t.Fatalf("%s: golden file has %d cells at seed %d, workload has %d", spec.name, len(golden), g.Seed, len(ids))
		}
		for _, id := range ids {
			if _, ok := g.Cells[id]; !ok {
				t.Errorf("%s: no golden digest for %s", spec.name, id)
			}
		}
	}
}
