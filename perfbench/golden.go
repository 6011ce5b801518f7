package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"match/internal/core"
)

// The golden files pin every cell's Breakdown at the default seed: a
// change that alters any virtual-time result, signature or count of a
// benchmark cell fails the benchmark's output check at that seed.
//
//go:embed testdata/golden-*.json
var goldenFS embed.FS

// goldenFile maps cell ids ("HPCCG/restart/k1") to Breakdown digests.
type goldenFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Cells    map[string]string `json:"cells"`
}

func goldenName(workload string) string { return "golden-" + workload + ".json" }

func loadGolden(workload string) (goldenFile, error) {
	var g goldenFile
	b, err := goldenFS.ReadFile("testdata/" + goldenName(workload))
	if err != nil {
		return g, fmt.Errorf("golden digests for %s: %w", workload, err)
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("golden digests for %s: %w", workload, err)
	}
	return g, nil
}

// writeGolden regenerates a golden file in the source tree under root.
func writeGolden(root string, g goldenFile) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "testdata", goldenName(g.Workload)), append(b, '\n'), 0o644)
}

// cellID names a campaign cell by the axes the benchmark sweeps.
func cellID(c core.Config) string {
	return fmt.Sprintf("%s/%s/k%d", c.App, c.Design.ShortName(), c.FaultCount())
}

// digest fingerprints a Breakdown: every field, via its JSON encoding.
func digest(bd core.Breakdown) string {
	b, err := json.Marshal(bd)
	if err != nil {
		panic(err) // a Breakdown holds only numbers and bools
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// compareGolden lists every cell of got whose digest is missing from want
// or differs from it, sorted.
func compareGolden(want, got map[string]string) []string {
	var bad []string
	for id, d := range got {
		w, ok := want[id]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: no golden digest", id))
		case w != d:
			bad = append(bad, fmt.Sprintf("%s: digest %s, golden %s", id, d, w))
		}
	}
	sort.Strings(bad)
	return bad
}
