package controlplane

import (
	"bytes"
	"testing"
)

// FuzzReplayLog feeds arbitrary bytes through ReadLog and Replay on a
// one-node plane: every input must come back as a drained plane or an
// error, never a panic or a hang. The seeds under testdata/fuzz pin the
// hostile entries found so far.
func FuzzReplayLog(f *testing.F) {
	for _, seed := range []string{
		`{"op":"tenant","vt":0,"config":{"id":"a","model":"ResNet 18","class":"gold"}}` + "\n" +
			`{"op":"ingest","vt":0.5,"tenant":"a","n":3}` + "\n" +
			`{"op":"ingest","vt":1.5,"tenant":"a"}` + "\n" +
			`{"op":"snapshot","vt":4}` + "\n",
		`{"op":"tenant","vt":0,"config":{"id":"b","model":"VGG 19","class":"bronze","burst":1e9}}` + "\n" +
			`{"op":"ingest","vt":-3,"tenant":"b","n":-2}` + "\n",
		`{"op":"ingest","vt":1,"tenant":"ghost","n":1}` + "\n",
		`{"op":"tenant","vt":1}` + "\n",
		`{"op":"reboot","vt":1}` + "\n",
		"not json\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, sum, err := Replay(Options{Seed: 1, Nodes: 1}, entries)
		if err != nil {
			return
		}
		if p == nil || sum == nil {
			t.Fatalf("Replay returned plane %v and summary %v without an error", p, sum)
		}
	})
}
