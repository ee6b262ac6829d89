package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this build's runs")

// goldenPath holds one line per catalog scenario × backend at seed 42:
// "<scenario>/<backend> <fingerprint prefix>", the same 16 hex digits
// marketsim prints for `-scenario all -backend both -seed 42`.
var goldenPath = filepath.Join("testdata", "fingerprints.golden")

// TestCatalogFingerprintsGolden is the behaviour lock: every catalog
// scenario on both backends must reproduce the checked-in fingerprint
// bit for bit. Unlike the same-build equivalence tests, it catches a
// change that moves every execution mode the same way. A change that
// means to alter behaviour rewrites the file with `make goldens` and
// says why.
func TestCatalogFingerprintsGolden(t *testing.T) {
	var got strings.Builder
	for _, sc := range Catalog() {
		for _, kind := range backendKinds {
			rep := runNamed(t, sc.Name, kind, Config{Seed: 42})
			fmt.Fprintf(&got, "%s/%s %s\n", sc.Name, kind, rep.Fingerprint()[:16])
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `make goldens` to record it)", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	have := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(want) != len(have) {
		t.Fatalf("golden has %d runs, catalog gives %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("fingerprint changed: golden %q, got %q", want[i], have[i])
		}
	}
}
