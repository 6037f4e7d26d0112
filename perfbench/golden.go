package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
)

// goldenJSON is the simulated outcome of every distinct op, recorded
// from the tree the benchmark was committed with (-write-golden).
//
//go:embed golden.json
var goldenJSON []byte

// golden is the recorded outcome set. Ops holds full statistics per op
// key; Pool holds one digest per entry of the service's unique-size
// pool, which is too large to record field by field.
type golden struct {
	Ops  map[string]outcome `json:"ops"`
	Pool []string           `json:"pool"`
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden record: %w", err)
	}
	return g, nil
}

// digest is a compact fingerprint of an outcome.
func (o outcome) digest() string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d", o.MakespanNs, o.Instances, o.Decisions,
		o.Transfers, o.HtoDBytes, o.DtoHBytes, o.P2PBytes)
	return fmt.Sprintf("%08x", h.Sum32())
}

// check compares a measured outcome against the record for key.
func (g *golden) check(key string, got outcome) error {
	want, ok := g.Ops[key]
	if !ok {
		return fmt.Errorf("%s: no golden outcome recorded", key)
	}
	if got != want {
		return fmt.Errorf("%s: simulated outcome %+v, golden %+v", key, got, want)
	}
	return nil
}

// checkPool compares a unique-size service outcome against its digest.
func (g *golden) checkPool(i int, got outcome) error {
	if i >= len(g.Pool) {
		return fmt.Errorf("pool entry %d: no golden digest recorded", i)
	}
	if d := got.digest(); d != g.Pool[i] {
		return fmt.Errorf("pool entry %d: simulated outcome %+v has digest %s, golden %s", i, got, d, g.Pool[i])
	}
	return nil
}

// writeGolden records the outcome of every distinct op of every
// workload from the current tree.
func writeGolden(path string) error {
	g := &golden{Ops: make(map[string]outcome)}
	plats, err := platforms()
	if err != nil {
		return err
	}
	for _, build := range libOps {
		ops, err := build()
		if err != nil {
			return err
		}
		for _, o := range ops {
			oc, err := o.run(plats[o.plat])
			if err != nil {
				return fmt.Errorf("%s: %w", o.key, err)
			}
			g.Ops[o.key] = oc
		}
	}
	if err := recordService(g); err != nil {
		return err
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
