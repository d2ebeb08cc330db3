package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gtsrb"
)

// wireTargets makes a fresh request of every type a POST route decodes.
var wireTargets = []func() any{
	func() any { return new(predictRequest) },
	func() any { return new(predictBatchRequest) },
	func() any { return new(defendHTTPRequest) },
	func() any { return new(detectHTTPRequest) },
	func() any { return new(attackHTTPRequest) },
	func() any { return new(evalHTTPRequest) },
	func() any { return new(modelsActionRequest) },
}

func decodeWire(data []byte, dst any) error {
	d := wireDecoder{buf: data}
	return d.decode(dst)
}

// checkWireAgrees is the differential oracle: for every request type the
// wire decoder and json.Unmarshal agree on accept/reject, and on the
// decoded value — DeepEqual for structure (nil versus empty), the
// marshalled form for float bits (DeepEqual calls -0 and 0 equal).
func checkWireAgrees(t *testing.T, data []byte) {
	t.Helper()
	for _, mk := range wireTargets {
		got, ref := mk(), mk()
		refErr := json.Unmarshal(data, ref)
		gotErr := decodeWire(data, got)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%T: encoding/json says %v, wire says %v\nbody: %.200q", ref, refErr, gotErr, data)
		}
		if refErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%T: wire decoded %+v, encoding/json %+v\nbody: %.200q", ref, got, ref, data)
		}
		gotJSON, _ := json.Marshal(got)
		refJSON, _ := json.Marshal(ref)
		if !bytes.Equal(gotJSON, refJSON) {
			t.Fatalf("%T: wire re-marshals to %.200s, encoding/json to %.200s", ref, gotJSON, refJSON)
		}
	}
}

// benchImage is one image member list as bench/ encodes it:
// full-precision floats, then the shape. Sides under 32 (fuzz seeds) take
// the first pixels of the 32-pixel render.
func benchImage(class, side int) string {
	pix, _ := json.Marshal(gtsrb.Canonical(class, 32).Data()[:3*side*side])
	return fmt.Sprintf(`"pixels":%s,"shape":[3,%d,%d]`, pix, side, side)
}

func benchPredictBody(side int) []byte {
	return []byte(`{` + benchImage(gtsrb.ClassStop, side) + `,"tm":"2"}`)
}

func benchBatchBody(n, side int) []byte {
	imgs := make([]string, n)
	for i := range imgs {
		imgs[i] = `{` + benchImage(i, side) + `}`
	}
	return []byte(`{"images":[` + strings.Join(imgs, ",") + `],"tm":"2","precision":"float32"}`)
}

func benchDefendBody(side int) []byte {
	return []byte(`{` + benchImage(gtsrb.ClassStop, side) +
		`,"filter":"chain(median(r=1),histeq(bins=64))","predict":true,"return_pixels":false}`)
}

func nested(depth int) string {
	return strings.Repeat("[", depth) + strings.Repeat("]", depth)
}

// wireSeeds is the request-body corpus FuzzWireDecode and FuzzRoutes
// start from.
func wireSeeds() [][]byte {
	seeds := [][]byte{benchPredictBody(4), benchBatchBody(3, 4), benchDefendBody(4)}
	for _, seed := range []string{
		// Whole-body forms.
		``, ` `, `null`, ` null `, `{}`, `[]`, `7`, `"x"`, `{} x`, `{}{}`, "{}\n", `{"tm":"2"`, `{"tm" "2"}`, `{,}`, `{"tm":"2",}`,
		// Member names: case folding (ASCII, U+017F, U+212A), escapes, duplicates.
		`{"PIXELS":[1,2],"Shape":[2],"TM":"3","Probs":true}`,
		`{"pixel` + "\u017f" + `":[1],"` + "\u212a" + `eep":true,"tas` + "\u212a" + `":1}`,
		`{"pixels":[1],"tm":"2","\ud800":1,"é":2}`,
		`{"tm":"1","tm":"2","TM":"3"}`,
		`{"pixels":[1,2,3],"pixels":[null,null]}`,
		`{"pixels":[1,2,3],"pixels":[9],"pixels":[null,null]}`,
		`{"pixels":[],"pixels":[1]}`,
		`{"shape":[1,2],"shape":[null]}`,
		`{"images":[{"pixels":[1,2]}],"images":[{"shape":[1]}]}`,
		`{"cases":[{"source":1}],"cases":[{"target":2},{}]}`,
		// null members and elements.
		`{"pixels":null,"shape":null,"tm":null,"probs":null,"target":null,"return_pixels":null,"images":null,"cases":null}`,
		`{"tm":"2","tm":null,"pixels":[1],"pixels":null}`,
		`{"pixels":[null,1,null],"shape":[null,3]}`,
		`{"images":[null,{"pixels":[1]},null],"cases":[null]}`,
		// Strings.
		`{"tm":"a\"b\\c\/d\b\f\n\r\té😀","filter":"` + "\xff\xfe" + `","model":"\ud800x"}`,
		`{"tm":"a` + "\x01" + `"}`, `{"tm":"a\x"}`, `{"tm":"\u12g4"}`, `{"tm":"\u12`, `{"tm":"abc`, `{"tm":"\`,
		`{"attack":"pgd(eps=0.03)","adaptive":"eot(draws=4)","attacks":["fgsm","bim(eps=0.1)"],"adaptive":["blind"]}`,
		// Unknown members, valid and not.
		`{"x":{"a":[1,{"b":null}],"c":"d"},"tm":"2"}`,
		`{"x":tru}`, `{"x":nul}`, `{"x":falsey}`, `{"x":01}`, `{"x":1.}`, `{"x":.5}`, `{"x":+1}`, `{"x":-}`, `{"x":1e}`, `{"x":1e+}`,
		`{"x":[1,]}`, `{"x":[1 2]}`, `{"x":{"a"}}`, `{"x":{"a":}}`, `{"x":{1:2}}`, `{"x":[}`, `{"x":{]}`, `{"x":}`, `{"x"}`,
		// Type mismatches.
		`{"source":3.0}`, `{"source":3}`, `{"source":1e2}`, `{"source":-0}`, `{"source":99999999999999999999}`,
		`{"shape":[3.0]}`, `{"shape":[1e1]}`, `{"shape":[-0,007]}`, `{"shape":[123456789012345678,1234567890123456789]}`,
		`{"shape":[99999999999999999999]}`, `{"shape":3}`, `{"shape":"3"}`, `{"shape":[[3]]}`, `{"shape":[ ]}`, `{"shape":[ 3 , 4 ]}`,
		`{"tm":2}`, `{"probs":"true"}`, `{"probs":1}`, `{"target":"1"}`, `{"keep":null,"keep":true}`,
		`{"pixels":1}`, `{"pixels":"1"}`, `{"pixels":{}}`, `{"pixels":["1"]}`, `{"pixels":[true]}`, `{"pixels":[[1]]}`, `{"pixels":[{}]}`,
		`{"images":{}}`, `{"images":[1]}`, `{"images":[[]]}`, `{"images":[{"pixels":[1}]}`, `{"cases":[{"pixels":[1],"shape":[1],"source":2,"target":3}]}`,
		// Numbers.
		`{"pixels":[1e999]}`, `{"pixels":[-1e999]}`, `{"pixels":[1e-999]}`, `{"pixels":[0.1,-0,0,-0.0,1E5,1e+5,1e-5,0e0]}`,
		`{"pixels":[01]}`, `{"pixels":[1.]}`, `{"pixels":[.5]}`, `{"pixels":[-]}`, `{"pixels":[1e]}`, `{"pixels":[1,]}`, `{"pixels":[,1]}`,
		`{"pixels":[1 2]}`, `{"pixels":[1`, `{"pixels":[1,`, `{"pixels":[`, `{"pixels":[1]`, `{"pixels":[ ]}`, "{\"pixels\":[\t1 ,\n2\r, 3 ]}",
		`{"pixels":[0x10]}`, `{"pixels":[1_000]}`, `{"pixels":[Infinity]}`, `{"pixels":[NaN]}`,
		// encoding/json's depth limit is 10 000 containers; the body's own object counts.
		`{"x":` + nested(9999) + `}`, `{"x":` + nested(10000) + `}`, nested(10001),
		`{"pixels":` + nested(10000) + `}`, `{"images":[{"x":` + nested(9997) + `}]}`, `{"images":[{"x":` + nested(9998) + `}]}`,
	} {
		seeds = append(seeds, []byte(seed))
	}
	return seeds
}

func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkWireAgrees)
}

// fillNonZero sets every settable field under v to a non-zero value.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillNonZero(v.Index(0))
		fillNonZero(v.Index(1))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.25)
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// TestWireCoversEveryField guards the tag-to-table builder (wireFields):
// a body carrying every field of a request struct, marshalled by
// encoding/json from its tags, must decode to the value it came from.
func TestWireCoversEveryField(t *testing.T) {
	for _, mk := range wireTargets {
		want := mk()
		fillNonZero(reflect.ValueOf(want).Elem())
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got := mk()
		if err := decodeWire(body, got); err != nil {
			t.Fatalf("%T: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: decoded %+v, want %+v (body %s)", want, got, want, body)
		}
		checkWireAgrees(t, body)
	}
}

// TestWireNamesDoNotFold pins the precondition of the decoder's
// first-match lookup: no two member names of a request type fold together
// under strings.EqualFold, the only case in which encoding/json's
// exact-match-first rule could pick a different field.
func TestWireNamesDoNotFold(t *testing.T) {
	types := []reflect.Type{reflect.TypeFor[imagePayload](), reflect.TypeFor[evalHTTPCase]()}
	for _, mk := range wireTargets {
		types = append(types, reflect.TypeOf(mk()).Elem())
	}
	for _, typ := range types {
		fields := wireFields(typ)
		for i, a := range fields {
			for _, b := range fields[i+1:] {
				if strings.EqualFold(a.name, b.name) {
					t.Errorf("%v: members %q and %q fold together", typ, a.name, b.name)
				}
			}
		}
	}
}

// TestWireFloatBits pins pixel parsing bit for bit against encoding/json.
func TestWireFloatBits(t *testing.T) {
	literals := []string{
		"0", "-0", "0.0", "-0.0", "1", "-1", "0.5", "0.1", "0.2", "0.30000000000000004", // shortest forms
		"0.50000000000000011", "0.12345678901234567", "12345678901234567", "0.99999999999999989", // 17 digits
		"0.1000000000000000055511151", "0.3333333333333333148296163", "1.000000000000000222044605", "9007199254740993.000000001", // 25 digits
		"4.9e-324", "5e-324", "2.2250738585072011e-308", "2.2250738585072014e-308", "1e-320", "1e-400", // subnormals, underflow
		"1.7976931348623157e308", "1.7976931348623157E+308", "179769313486231570000000000000000000000e270", // MaxFloat64
		"1e0", "1E0", "1e+0", "1e-0", "1e22", "1e23", "123e-2", "0e10", "-1.5e-7", "6.02214076E23", // exponent forms
		"2.4703282292062327e-324", "2.4703282292062328e-324", "8.98846567431158e307", // rounding boundaries
	}
	for _, rng := range []uint64{1, 2, 3} {
		// A few bit patterns in the shortest form strconv writes.
		x := rng * 0x9E3779B97F4A7C15
		for i := 0; i < 200; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if f := math.Float64frombits(x); !math.IsNaN(f) && !math.IsInf(f, 0) {
				literals = append(literals, strconv.FormatFloat(f, 'g', -1, 64))
			}
		}
	}
	// All in one array, with JSON's four whitespace bytes embedded.
	body := []byte("{ \"pixels\" :\t[\r\n " + strings.Join(literals, " ,\n\t") + "\r ] }")
	var got, ref predictRequest
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	if err := decodeWire(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Pixels) != len(literals) || len(ref.Pixels) != len(literals) {
		t.Fatalf("decoded %d / %d of %d literals", len(got.Pixels), len(ref.Pixels), len(literals))
	}
	for i, lit := range literals {
		if g, r := math.Float64bits(got.Pixels[i]), math.Float64bits(ref.Pixels[i]); g != r {
			t.Errorf("%s: wire %016x, encoding/json %016x", lit, g, r)
		}
		// And alone, where the literal touches the brackets.
		var one, oneRef predictRequest
		alone := []byte(`{"pixels":[` + lit + `]}`)
		if err := json.Unmarshal(alone, &oneRef); err != nil {
			t.Fatal(err)
		}
		if err := decodeWire(alone, &one); err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		if math.Float64bits(one.Pixels[0]) != math.Float64bits(oneRef.Pixels[0]) {
			t.Errorf("%s alone: wire %v, encoding/json %v", lit, one.Pixels[0], oneRef.Pixels[0])
		}
	}
}

// TestWireErrorNamesPosition: a syntax error reports its byte offset and
// the member it sits in.
func TestWireErrorNamesPosition(t *testing.T) {
	body := `{"images":[{"pixels":[1,2]},{"pixels":[1,x]}]}`
	err := decodeWire([]byte(body), new(predictBatchRequest))
	if err == nil {
		t.Fatal("malformed body accepted")
	}
	for _, want := range []string{fmt.Sprintf("offset %d", strings.LastIndex(body, "x")), `"images"`, `"pixels"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestWireDecodeAllocs pins the decoder's allocations on a bench-shaped
// /v1/predict body: the pixels, the shape, the tm string — and one spare.
func TestWireDecodeAllocs(t *testing.T) {
	body := benchPredictBody(32)
	d := wireDecoder{buf: body}
	allocs := testing.AllocsPerRun(50, func() {
		var req predictRequest
		if err := d.decode(&req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("predict body decodes in %v allocations, want <= 4", allocs)
	}
}

// benchWire times the wire decoder on body. Given enough iterations to
// mean something it is also a gate, phrased relative to encoding/json on
// the same body in the same process (each side's fastest of ten alternating
// rounds, so a noisy neighbour does not decide it): CI runs it at -benchtime 300x
// and fails under 2×.
func benchWire[T any](b *testing.B, body []byte) {
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	d := wireDecoder{buf: body}
	wire := func() {
		var req T
		if err := d.decode(&req); err != nil {
			b.Fatal(err)
		}
	}
	std := func() {
		var req T
		if err := json.Unmarshal(body, &req); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		wire()
	}
	b.StopTimer()
	if b.N < 100 {
		return
	}
	round := func(f func()) time.Duration {
		start := time.Now()
		for i := 0; i < b.N/10; i++ {
			f()
		}
		return time.Since(start)
	}
	bestWire, bestStd := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 10; i++ {
		bestStd = min(bestStd, round(std))
		bestWire = min(bestWire, round(wire))
	}
	ratio := float64(bestStd) / float64(bestWire)
	b.ReportMetric(ratio, "x-encoding/json")
	if ratio < 2 {
		b.Fatalf("wire decoder is %.2f× encoding/json on this body, want >= 2×", ratio)
	}
}

func BenchmarkWireDecode(b *testing.B) {
	b.Run("predict58k", func(b *testing.B) { benchWire[predictRequest](b, benchPredictBody(32)) })
	b.Run("batch16", func(b *testing.B) { benchWire[predictBatchRequest](b, benchBatchBody(16, 32)) })
}
