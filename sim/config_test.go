package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// keySrc has two registers with independent cones, so WithPartitions(2)
// really builds a two-partition plan.
const keySrc = `
circuit Key :
  module Key :
    input clock : Clock
    input step : UInt<4>
    output a : UInt<8>
    output b : UInt<8>
    reg x : UInt<8>, clock
    reg y : UInt<8>, clock
    x <= tail(add(x, pad(step, 8)), 1)
    y <= tail(add(y, UInt<8>(1)), 1)
    a <= x
    b <= y
`

// optionRows is the compile surface, one row per config field: options that
// set the field to non-default values, each of which must fork the key. A
// field without a row fails TestSourceHashOptionSensitivity, so a new
// compile option cannot skip the hash.
var optionRows = map[string][]Option{
	"kernel":     {WithKernel(TI), WithKernel(RU), WithKernel(PSU)},
	"partitions": {WithPartitions(1), WithPartitions(2), WithPartitions(3)},
}

// TestSourceHashOptionSensitivity: config is the key. Every field of config
// has a row of non-default options; each such option changes that field and
// no other, forks the hash away from the default and from every other row,
// and the field is written exactly once by fingerprint.
func TestSourceHashOptionSensitivity(t *testing.T) {
	base := SourceHash(keySrc)
	if again := SourceHash(keySrc); again != base {
		t.Fatalf("hash not deterministic: %s vs %s", again, base)
	}
	def := reflect.ValueOf(resolve(nil))
	typ := def.Type()
	if len(optionRows) != typ.NumField() {
		t.Errorf("optionRows has %d rows for the %d fields of config", len(optionRows), typ.NumField())
	}
	seen := map[string]string{base: "the default"}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if n := strings.Count(resolve(nil).fingerprint(), name+"="); n != 1 {
			t.Errorf("fingerprint writes config.%s %d times, want once", name, n)
		}
		row, ok := optionRows[name]
		if !ok {
			t.Errorf("config.%s has no row in optionRows: a compile option must fork SourceHash and be listed here", name)
			continue
		}
		for j, opt := range row {
			got := reflect.ValueOf(resolve([]Option{opt}))
			for f := 0; f < typ.NumField(); f++ {
				changed := !got.Field(f).Equal(def.Field(f))
				if changed != (f == i) {
					t.Errorf("%s row %d: field %s changed = %v", name, j, typ.Field(f).Name, changed)
				}
			}
			h := SourceHash(keySrc, opt)
			if prev, dup := seen[h]; dup {
				t.Errorf("%s row %d hashes like %s", name, j, prev)
			}
			seen[h] = name
		}
	}
}

// TestEqualHashesNameEqualDesigns is the converse SourceHash's comment
// promises: option lists that resolve alike — the defaults spelled out, the
// same options in either order, an option overridden back — hash alike, and
// what they compile is interchangeable: the same OIM bytes, kernel and plan.
func TestEqualHashesNameEqualDesigns(t *testing.T) {
	for name, pair := range map[string][2][]Option{
		"defaults spelled out": {nil, {WithKernel(IU)}},
		"either order":         {{WithKernel(TI), WithPartitions(2)}, {WithPartitions(2), WithKernel(TI)}},
		"later wins":           {{WithPartitions(2)}, {WithKernel(PSU), WithPartitions(3), WithKernel(IU), WithPartitions(2)}},
	} {
		if a, b := SourceHash(keySrc, pair[0]...), SourceHash(keySrc, pair[1]...); a != b {
			t.Errorf("%s: hashes differ: %s vs %s", name, a, b)
			continue
		}
		a, b := compileArtifact(t, keySrc, pair[0]...), compileArtifact(t, keySrc, pair[1]...)
		if !bytes.Equal(a.oim, b.oim) {
			t.Errorf("%s: equal hashes, different OIM", name)
		}
		if a.kernel != b.kernel {
			t.Errorf("%s: equal hashes, kernels %v and %v", name, a.kernel, b.kernel)
		}
		if a.partitioned != b.partitioned || !reflect.DeepEqual(a.stats, b.stats) {
			t.Errorf("%s: equal hashes, partition stats %+v (%v) and %+v (%v)", name, a.stats, a.partitioned, b.stats, b.partitioned)
		}
	}
}

// TestDistinctHashesNameDistinctDesigns is the other half of the key's
// contract: every option that forks SourceHash compiles something the
// default does not — other OIM bytes, another kernel, or another partition
// plan. A config field that forks the key but not the artifact (a run-time
// knob) would make a serving layer compile and cache one design twice.
func TestDistinctHashesNameDistinctDesigns(t *testing.T) {
	def := compileArtifact(t, keySrc)
	for name, row := range optionRows {
		for j, opt := range row {
			got := compileArtifact(t, keySrc, opt)
			if reflect.DeepEqual(got, def) {
				t.Errorf("%s row %d forks SourceHash but compiles the default design", name, j)
			}
		}
	}
}

// artifact is what a compile produced, as the key's two tests compare it.
type artifact struct {
	oim         []byte
	kernel      Kernel
	stats       PartitionStats
	partitioned bool
}

func compileArtifact(t *testing.T, src string, opts ...Option) artifact {
	t.Helper()
	d, err := Compile(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteOIM(&buf); err != nil {
		t.Fatal(err)
	}
	a := artifact{oim: buf.Bytes(), kernel: d.Kernel()}
	a.stats, a.partitioned = d.PartitionStats()
	return a
}
