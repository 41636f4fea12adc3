package explore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzArtifactDecode drives the artifact loader with arbitrary bytes.
// Every input must end in an error or in an artifact that passes Validate
// and comes back equal from an Encode → Decode round trip — an artifact
// this build would write differently from how it read it is refused at
// load time, not at the next save. Nothing is replayed: a decoded
// scenario's node count is unbounded. The seeds are the committed
// artifacts, so `go test` runs them in tier-1.
func FuzzArtifactDecode(f *testing.F) {
	for _, name := range []string{
		"golden_floodpaxos_one3_extra.json",
		"golden_wpaxos_midbroadcast_chords.json",
		"stall_twophase_coordinator_chords.json",
	} {
		b, err := os.ReadFile(filepath.Join("..", "harness", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Decode returned an artifact that fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			t.Fatalf("Encode refused a decoded artifact: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode refused what Encode wrote: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("round trip changed the artifact\n read    %+v\n written %+v", a, back)
		}
	})
}
