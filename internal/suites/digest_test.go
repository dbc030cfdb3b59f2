package suites_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"specchar"
	"specchar/internal/suites"
)

// The SHA-256 of each suite's generated dataset in the columnar format
// (WriteColumnar), at the two generation scales the library ships. They
// pin the whole simulator — trace generation, the uarch state machines
// and the PMU model — byte for byte: a faster simulator must reproduce
// them exactly, and only a deliberate change of results may re-pin them.
// The default-scale CPU2006 and OMP2001 values are the ones the
// repository benchmark pins (perfbench/pinned.go).
var (
	quickDigests = map[string]string{
		"SPEC CPU2000": "a411aeaf29fe5e15ba38605308b645313dcab1872e7fa5678ff354070e5f21e6",
		"SPEC CPU2006": "0afa7142533754af2978da9b2d22bf5b416afb9a21b120a36c99c6f83b2644df",
		"SPEC CPU2017": "85476c21b945e2e739f68e519bbb80e5ed7fd3ea1ae1a02affb071a6f991971a",
		"SPEC CPU2026": "9601a787e89ae5ca84c010b7bf5bd6a7cc2fe85d1837139f199503948965f275",
		"SPEC OMP2001": "99c81d72753d958e9d2e6af48e9df55cff8417b09546451b8326e371adea047b",
	}
	defaultDigests = map[string]string{
		"SPEC CPU2000": "7532cae9314632d4773f86dc84c65300a37c988a3341a3719ec97c5b86733ae6",
		"SPEC CPU2006": "0c03bd694e01d54fa606ec8b8b82862d2a6e39da8c8525f35511eb72d0964b8a",
		"SPEC CPU2017": "421df419c38a48612f42be6361c7013c3f629ebb00e6ce609dceb4871076659b",
		"SPEC CPU2026": "97270dc2e0ab1bf26fd69f6cb1958480ae775a78335f67a11fcb0d8f56dde34a",
		"SPEC OMP2001": "a9683c540b18ff152c382d35516fbcd6bd1abde6f8cb17a72d2a7fed946338be",
	}
)

func checkDigests(t *testing.T, gen suites.GenOptions, want map[string]string) {
	t.Helper()
	for _, s := range append(suites.Generations(), suites.OMP2001()) {
		d, err := suites.Generate(s, gen)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		h := sha256.New()
		if err := d.WriteColumnar(h); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[s.Name] {
			t.Errorf("%s: dataset digest %s, want %s", s.Name, got, want[s.Name])
		}
	}
}

// TestDatasetDigestsQuick pins every suite at QuickConfig's generation
// options.
func TestDatasetDigestsQuick(t *testing.T) {
	checkDigests(t, specchar.QuickConfig().Gen, quickDigests)
}

// TestDatasetDigestsDefault pins every suite at DefaultGenOptions, the
// scale of the paper's tables and figures.
func TestDatasetDigestsDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale generation of five suites; run without -short")
	}
	if raceEnabled {
		// About 20 s without the race detector and ten times that with
		// it; CI runs this test in its own non-race step.
		t.Skip("default-scale generation of five suites is too slow under -race")
	}
	checkDigests(t, suites.DefaultGenOptions(), defaultDigests)
}
