package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The golden outputs, committed with the benchmark: the decision-hash
// of every control scenario and the paper rows. They are compiled in,
// so a run needs no file beyond the binary.
//
//go:embed golden/control.json golden/paper.json
var goldenFS embed.FS

type goldenData struct {
	Control map[string]string          // scenario -> decision hash (hex)
	Paper   map[string]json.RawMessage // figure key -> rows
}

func loadGolden() (*goldenData, error) {
	g := &goldenData{}
	files := []struct {
		name string
		dst  any
	}{{"golden/control.json", &g.Control}, {"golden/paper.json", &g.Paper}}
	for _, f := range files {
		raw, err := goldenFS.ReadFile(f.name)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, f.dst); err != nil {
			return nil, fmt.Errorf("golden %s: %w", f.name, err)
		}
	}
	return g, nil
}

// writeGolden regenerates golden/*.json (relative to the repository
// root, where the command runs) from the current code: one rep of
// every control scenario, the analytic figures, and the full and
// reduced simulated slices. Review the diff before committing it.
func writeGolden() error {
	control := make(map[string]string)
	for k := uint64(0); k < controlScenarios; k++ {
		sc, err := newScenario(k)
		if err != nil {
			return err
		}
		h, err := runControlRep(sc, k, &controlRun{}, nil, 0, false)
		if err != nil {
			return err
		}
		control[fmt.Sprint(k)] = fmt.Sprintf("%016x", h)
	}
	paper := &paperRun{record: make(map[string]json.RawMessage)}
	for _, full := range []bool{true, false} {
		if err := paperIteration(full, nil, paper, nil, 0); err != nil {
			return err
		}
	}
	files := []struct {
		name string
		v    any
	}{{"control.json", control}, {"paper.json", paper.record}}
	for _, f := range files {
		raw, err := json.MarshalIndent(f.v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join("perfbench", "golden", f.name), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
