package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

// pinsJSON records planet-clear's per-epoch outcomes per seed: converged
// flag, clock rounds, won count and a digest of the clearing prices. The
// clear is deterministic for a seed, so any drift is a behaviour change
// and fails the run. Outcomes are float-exact, so they hold for the
// amd64 build they were recorded with. Regenerate a seed's entry with
//
//	bash perfbench/run.sh -workload planet-clear -seed N -write-pins
//
//go:embed pins.json
var pinsJSON []byte

// pinsPath is where -write-pins stores outcomes, relative to the
// repository root the benchmark runs from.
var pinsPath = filepath.Join("perfbench", "pins.json")

func loadPins(raw []byte) (map[string][]pin, error) {
	pins := map[string][]pin{}
	if err := json.Unmarshal(raw, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// checkPins compares the run's epoch outcomes with the seed's pins, as
// far as both go; a seed without pins is reported as unpinned.
func checkPins(r *run, got []pin) {
	key := strconv.FormatInt(r.seed, 10)
	if r.writePins {
		if err := savePins(key, got); err != nil {
			r.check(false, "writing pins: %v", err)
		}
		return
	}
	pins, err := loadPins(pinsJSON)
	if err != nil {
		r.check(false, "%v", err)
		return
	}
	want, ok := pins[key]
	r.params["pinned_epochs"] = min(len(want), len(got))
	if !ok {
		return
	}
	if runtime.GOARCH != "amd64" {
		r.params["pinned_epochs"] = 0
		return
	}
	for i := 0; i < len(want) && i < len(got); i++ {
		r.check(got[i] == want[i], "epoch %d drifted from its pin: got %+v, pinned %+v", i+1, got[i], want[i])
	}
}

func savePins(key string, got []pin) error {
	raw, err := os.ReadFile(pinsPath)
	if err != nil {
		return err
	}
	pins, err := loadPins(raw)
	if err != nil {
		return err
	}
	if len(got) >= len(pins[key]) {
		pins[key] = got
	}
	out, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath, append(out, '\n'), 0o644)
}
