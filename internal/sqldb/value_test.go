package sqldb

import (
	"math"
	"testing"
	"unsafe"
)

// edgeValues covers the extremes of each representation Value packs into
// its one payload word.
func edgeValues() []Value {
	return []Value{
		Null(), Int(0), Int(-1), Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1.5), Float(math.Inf(1)),
		Float(math.Inf(-1)), Float(math.NaN()), Float(math.SmallestNonzeroFloat64),
		String(""), String("x"),
	}
}

// sameValue reports whether a and b have the same kind and payload, floats
// compared by bit pattern (so -0 differs from 0 and NaN matches NaN).
func sameValue(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case KindInt:
		return a.AsInt() == b.AsInt()
	case KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	default:
		return a.AsString() == b.AsString()
	}
}

func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
}

func TestValueAccessorsKeepEdges(t *testing.T) {
	if Int(math.MinInt64).AsInt() != math.MinInt64 || Int(math.MaxInt64).AsInt() != math.MaxInt64 {
		t.Fatal("int64 extremes lost")
	}
	if f := Float(math.Copysign(0, -1)).AsFloat(); f != 0 || !math.Signbit(f) {
		t.Fatalf("-0 read back as %v", f)
	}
	if !math.IsInf(Float(math.Inf(-1)).AsFloat(), -1) || !math.IsNaN(Float(math.NaN()).AsFloat()) {
		t.Fatal("infinity or NaN lost")
	}
	if Float(math.Copysign(0, -1)).Truthy() || Int(0).Truthy() || !Float(math.NaN()).Truthy() {
		t.Fatal("truthiness changed")
	}
	if Int(math.MaxInt64).AsString() != "9223372036854775807" || Float(math.Inf(1)).AsString() != "+Inf" {
		t.Fatal("string forms changed")
	}
}

func TestValueWALRoundTrip(t *testing.T) {
	vals := edgeValues()
	got, err := DecodeWALValues(EncodeWALValues(vals))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("%d values back, want %d", len(got), len(vals))
	}
	for i := range vals {
		if !sameValue(got[i], vals[i]) {
			t.Errorf("value %d: got %v, want %v", i, got[i], vals[i])
		}
	}
}

// TestValueIndexKeys checks that index keys follow Compare, not the bits a
// Value stores: numerically equal ints and floats share a key, and so do 0
// and -0.
func TestValueIndexKeys(t *testing.T) {
	if Int(3).key() != Float(3).key() {
		t.Fatal("Int(3) and Float(3) index under different keys")
	}
	if Float(0).key() != Float(math.Copysign(0, -1)).key() || Int(0).key() != Float(math.Copysign(0, -1)).key() {
		t.Fatal("0 and -0 index under different keys")
	}
	if Int(math.MinInt64).key() != Float(math.MinInt64).key() {
		t.Fatal("MinInt64 and its float index under different keys")
	}
	if Float(math.Inf(1)).key() == Float(math.Inf(-1)).key() || String("3").key() == Int(3).key() {
		t.Fatal("distinct values share a key")
	}
	for _, v := range edgeValues() {
		if v.Kind() == KindFloat && math.IsNaN(v.AsFloat()) {
			continue // NaN != NaN: no key matches it, as before
		}
		if v.key() != v.key() {
			t.Errorf("%v: key not stable", v)
		}
	}

	// Through indexed columns: each edge value is found by its own key, a
	// float probe finds the equal int, and a -0 probe finds the 0 row.
	db := New()
	s := db.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE vals (id INT PRIMARY KEY AUTO_INCREMENT, n INT, f FLOAT)")
	mustExec(t, s, "CREATE INDEX idx_n ON vals (n)")
	mustExec(t, s, "CREATE INDEX idx_f ON vals (f)")
	ints := []Value{Int(math.MinInt64), Int(math.MaxInt64), Int(3)}
	floats := []Value{Float(math.Inf(1)), Float(math.Inf(-1)), Float(0), Float(1.5)}
	for _, v := range ints {
		mustExec(t, s, "INSERT INTO vals (n) VALUES (?)", v)
	}
	for _, v := range floats {
		mustExec(t, s, "INSERT INTO vals (f) VALUES (?)", v)
	}
	probes := []struct {
		col   string
		probe Value
		want  Value
	}{
		{"n", Int(math.MinInt64), Int(math.MinInt64)},
		{"n", Int(math.MaxInt64), Int(math.MaxInt64)},
		{"n", Float(3), Int(3)},
		{"f", Float(math.Inf(1)), Float(math.Inf(1))},
		{"f", Float(math.Inf(-1)), Float(math.Inf(-1))},
		{"f", Float(math.Copysign(0, -1)), Float(0)},
		{"f", Int(0), Float(0)},
		{"f", Float(1.5), Float(1.5)},
	}
	for _, p := range probes {
		q := "SELECT " + p.col + " FROM vals WHERE " + p.col + " = ?"
		if _, indexed, err := FromIndexed(db, q, p.probe); err != nil || !indexed {
			t.Fatalf("%s with %v: not indexed (%v)", q, p.probe, err)
		}
		res := mustExec(t, s, q, p.probe)
		if len(res.Rows) != 1 || !sameValue(res.Rows[0][0], p.want) {
			t.Errorf("%s with %v: %v, want [%v]", q, p.probe, res.Rows, p.want)
		}
	}
}
