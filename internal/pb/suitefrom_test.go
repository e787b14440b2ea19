package pb

import "testing"

func TestSuiteFromResponsesValidates(t *testing.T) {
	d, err := New(7, false)
	if err != nil {
		t.Fatal(err)
	}
	factors := []Factor{{Name: "A"}}
	if _, err := SuiteFromResponses(d, factors, []string{"b"}, nil); err == nil {
		t.Fatal("mismatched benchmark/vector counts accepted")
	}
	if _, err := SuiteFromResponses(d, factors, nil, nil); err == nil {
		t.Fatal("empty suite accepted")
	}
	if _, err := SuiteFromResponses(d, factors, []string{"b"}, [][]float64{make([]float64, 3)}); err == nil {
		t.Fatal("short response vector accepted")
	}
}
