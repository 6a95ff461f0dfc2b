package checkpoint

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// legacyModelFile is a version-1 model file as earlier builds wrote it: a
// CardNet-A model over 8 bits (τmax 4, VAE hidden {6} and latent 3, Φ′
// hidden {10, 8}, ZDim 6, seed 21, TauTop 3), with gob-encoded weights.
const legacyModelFile = "testdata/model_v1.gob"

// TestLoadLegacyModelFile: a version-1 model file still loads; saved again
// it becomes a version-2 file that loads to the same config and the same
// weights, bit for bit.
func TestLoadLegacyModelFile(t *testing.T) {
	raw, err := os.ReadFile(legacyModelFile)
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != fileVersion {
		t.Fatalf("%s has frame version %d, want %d", legacyModelFile, raw[4], fileVersion)
	}
	old, err := LoadModel(legacyModelFile)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveModel(path, old); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if raw[4] != modelVersion {
		t.Fatalf("SaveModel wrote frame version %d, want %d", raw[4], modelVersion)
	}
	m, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Cfg, old.Cfg) || m.InDim != old.InDim || m.TauTop != old.TauTop || m.TauTop != 3 {
		t.Fatalf("config changed: %+v/%d/%d, then %+v/%d/%d", old.Cfg, old.InDim, old.TauTop, m.Cfg, m.InDim, m.TauTop)
	}
	a, b := old.Params(), m.Params()
	if len(a) != len(b) {
		t.Fatalf("%d parameters, then %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Value) != len(b[i].Value) {
			t.Fatalf("parameter %d: %s[%d], then %s[%d]", i, a[i].Name, len(a[i].Value), b[i].Name, len(b[i].Value))
		}
		for j, v := range a[i].Value {
			if math.Float64bits(v) != math.Float64bits(b[i].Value[j]) {
				t.Fatalf("%s[%d]: %v, then %v", a[i].Name, j, v, b[i].Value[j])
			}
		}
	}
}
