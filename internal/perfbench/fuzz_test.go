package perfbench

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseSet: the bench-output parser never panics, and every key it
// reports carries at least one sample.
func FuzzParseSet(f *testing.F) {
	f.Add(goldenOutput)
	for _, seed := range []string{
		"BenchmarkX 2\n",
		"BenchmarkX 2 100 ns/op 12\n",
		"BenchmarkX-4 2 NaN ns/op\n",
		"PASS\nok  \tpbsim\t191.618s\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSet(strings.NewReader(text))
		if err != nil {
			return
		}
		if len(s.Order) != len(s.Samples) {
			t.Fatalf("%d keys in order, %d sampled", len(s.Order), len(s.Samples))
		}
		for _, k := range s.Order {
			if len(s.Samples[k]) == 0 {
				t.Fatalf("key %v has no samples", k)
			}
		}
	})
}

// FuzzDecode: the trajectory decoder never panics, and what it accepts
// re-encodes to a canonical form that decodes and re-encodes to itself.
func FuzzDecode(f *testing.F) {
	var golden bytes.Buffer
	s, err := ParseSet(strings.NewReader(goldenOutput))
	if err != nil {
		f.Fatal(err)
	}
	if err := Encode(&golden, FromSet(s, "0")); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	for _, seed := range []string{
		`{"schema":"other/v9","rev":"0","benchmarks":[{"name":"X","unit":"ns/op","samples":[1],"median":1,"lo":1,"hi":1}]}`,
		`{"schema":"pbsim-bench/v1","rev":"0","benchmarks":[]}`,
		`{"schema":"pbsim-bench/v1","rev":"ci","config":{},"benchmarks":[],"frontier":[{"estimator":"uniform","pass":true}]}`,
		`BenchmarkX 2 100 ns/op`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Encode(&first, file); err != nil {
			t.Fatalf("accepted file does not re-encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, first.Bytes())
		}
		if err := Encode(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("canonical form not stable:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
