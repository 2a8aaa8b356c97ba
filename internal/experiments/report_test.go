package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteJSON(t *testing.T) {
	r, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "table3", r); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Experiment string `json:"experiment"`
		Result     struct {
			TotalKB float64 `json:"TotalKB"`
		} `json:"result"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Experiment != "table3" {
		t.Fatalf("experiment = %q", decoded.Experiment)
	}
	if decoded.Result.TotalKB < 1 || decoded.Result.TotalKB > 2 {
		t.Fatalf("TotalKB = %g", decoded.Result.TotalKB)
	}
}

func TestReportDispatch(t *testing.T) {
	r, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	var text, js bytes.Buffer
	if err := Report(&text, "table3", r, false); err != nil {
		t.Fatal(err)
	}
	if err := Report(&js, "table3", r, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Table III") {
		t.Fatal("text report missing header")
	}
	if !json.Valid(js.Bytes()) {
		t.Fatal("json report invalid")
	}
}

// TestPrintDeterministic: a result prints the same bytes every time, so
// reports diff cleanly across runs.
func TestPrintDeterministic(t *testing.T) {
	for name, r := range map[string]Printer{
		"fig10": &Fig10Result{
			SCurve:  map[string][]float64{"Permit PGC": {0.9, 1.1}, "DRIPPER": {1.0, 1.2}},
			BySuite: map[string]map[string]float64{"Permit PGC": {"spec": 1.01}, "DRIPPER": {"spec": 1.02}},
			Overall: map[string]float64{"Permit PGC": 1.01, "DRIPPER": 1.02},
			CI:      map[string][2]float64{"Permit PGC": {0.99, 1.03}, "DRIPPER": {1.0, 1.04}},
			Suites:  []string{"spec"},
		},
		"table2": &Table2Result{
			Selected: map[string][]string{"berti": {"PC"}, "bop": {"Delta"}, "ipcp": {"VA"}},
			Score:    map[string]float64{"berti": 1.01, "bop": 1.02, "ipcp": 1.03},
		},
	} {
		var first bytes.Buffer
		r.Print(&first)
		for i := 0; i < 50; i++ {
			var again bytes.Buffer
			r.Print(&again)
			if !bytes.Equal(first.Bytes(), again.Bytes()) {
				t.Fatalf("%s: print %d differs:\n%s\nvs\n%s", name, i, first.String(), again.String())
			}
		}
	}
}
