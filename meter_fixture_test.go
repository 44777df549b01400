package strongdecomp

import (
	"encoding/json"
	"maps"
	"os"
	"testing"
)

// meterFixture pins the simulated CONGEST cost of one construction on the
// fixture graph: the round total, the message total and the per-category
// round breakdown. The decomposition fixtures pin only the output, so this
// is what keeps a refactor of the carving state from silently changing
// what the Meter is charged.
type meterFixture struct {
	Algorithm  string           `json:"algorithm"`
	Rounds     int64            `json:"rounds"`
	Messages   int64            `json:"messages"`
	Components map[string]int64 `json:"components"`
}

const meterFixturePath = "testdata/meter_fixtures.json"

// meterFixtureAlgorithms are the constructions that charge the weak
// carver's rg/* categories and Theorem 2.1's thm21/* categories.
var meterFixtureAlgorithms = []string{"chang-ghaffari", "chang-ghaffari-improved"}

func computeMeterFixtures(t testing.TB) []meterFixture {
	g := fixtureGraph()
	var out []meterFixture
	for _, algo := range meterFixtureAlgorithms {
		m := NewMeter()
		if _, err := Decompose(g, WithAlgorithmName(algo), WithSeed(42), WithMeter(m)); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out = append(out, meterFixture{
			Algorithm: algo, Rounds: m.Rounds(), Messages: m.Messages(),
			Components: m.Components(),
		})
	}
	return out
}

// TestMeterFixtures asserts that the Meter charges of the paper's
// constructions on the fixture graph equal the recorded ones, category by
// category. Run with -update-fixtures to re-record (only legitimate when
// the cost model itself changes, never for a representation refactor).
func TestMeterFixtures(t *testing.T) {
	got := computeMeterFixtures(t)
	if *updateFixtures {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(meterFixturePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d fixtures", meterFixturePath, len(got))
		return
	}
	data, err := os.ReadFile(meterFixturePath)
	if err != nil {
		t.Fatalf("read meter fixtures (run with -update-fixtures to create): %v", err)
	}
	var want []meterFixture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d meter fixtures computed, %d recorded", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Algorithm != w.Algorithm {
			t.Fatalf("fixture %d: algorithm %s, recorded %s", i, g.Algorithm, w.Algorithm)
		}
		if g.Rounds != w.Rounds || g.Messages != w.Messages {
			t.Errorf("%s: rounds=%d messages=%d, fixture rounds=%d messages=%d",
				g.Algorithm, g.Rounds, g.Messages, w.Rounds, w.Messages)
		}
		if !maps.Equal(g.Components, w.Components) {
			t.Errorf("%s: per-category rounds %v, fixture %v", g.Algorithm, g.Components, w.Components)
		}
	}
}
