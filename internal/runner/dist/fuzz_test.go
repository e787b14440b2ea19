package dist

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadLedger: the shard decoder never panics, and it agrees with
// the torn-tail truncator — a ledger reads the same before and after a
// restarted worker truncates it, so a merge never counts a unit the
// next worker start erases.
func FuzzReadLedger(f *testing.F) {
	for _, seed := range []string{
		`{"fp":"fp","scope":"alpha","row":0,"value":1.25,"worker":"w1"}` + "\n",
		`{"fp":"fp","scope":"alpha","row":0,"value":1.25}` + "\n" + `{"fp":"fp","scope":"alpha","ro`,
		`{"fp":"fp","scope":"alpha","row":1,"value":2.5}`,
		"garbage not json\n" + `{"fp":"fp","scope":"beta","row":2,"value":3}` + "\n",
		"i am not a ledger\nstill not\n",
		`{"fp":"other","scope":"alpha","row":0,"value":1}` + "\n\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "w.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before, bq := readLedger(path, "fp")
		if err := truncateTornTail(path); err != nil {
			t.Fatal(err)
		}
		after, aq := readLedger(path, "fp")
		if !reflect.DeepEqual(before, after) || bq != aq {
			t.Fatalf("truncation changed the ledger: %v %q -> %v %q", before, bq, after, aq)
		}
	})
}

// FuzzOpenManifest: the manifest decoder never panics, and whatever it
// accepts is a valid manifest of its own schema version.
func FuzzOpenManifest(f *testing.F) {
	for _, seed := range []string{
		`{"version":2,"fp":"fp-test|n=1","scopes":[{"name":"alpha","rows":4},{"name":"beta","rows":3}]}`,
		`{"version":1,"fp":"fp","scopes":[{"name":"gzip","rows":88}],"spec":{"tool":"pbrank","n":"1000"}}`,
		`{"version":3,"fp":"fp","scopes":[{"name":"a","rows":1}]}`,
		`{"version":2,"fp":"fp","scopes":[{"name":"a/b","rows":1}]}`,
		`{"version":2,"fp":"fp","scopes":[{"name":"a","rows":1},{"name":"a","rows":2}]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := decodeManifest(data)
		if err != nil {
			return
		}
		if man.Version != ManifestVersion {
			t.Fatalf("accepted version %d", man.Version)
		}
		if err := man.validate(); err != nil {
			t.Fatalf("accepted an invalid manifest: %v", err)
		}
	})
}
