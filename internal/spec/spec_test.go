package spec

import (
	"reflect"
	"strings"
	"testing"
)

func TestSplit(t *testing.T) {
	good := []struct{ in, name, args string }{
		{"pgd", "pgd", ""},
		{" PGD ", "pgd", ""},
		{"pgd()", "pgd", ""},
		{"Median ( r = 2 ) ", "median", "r = 2"},
		{"chain(a(x=1),b)", "chain", "a(x=1),b"},
		{"detect(squeezers=(a,b),thr=1)", "detect", "squeezers=(a,b),thr=1"},
		{"lap:32", "lap:32", ""}, // the filters registry owns the legacy form
	}
	for _, c := range good {
		name, args, err := Split(c.in)
		if err != nil || name != c.name || args != c.args {
			t.Errorf("Split(%q) = %q, %q, %v; want %q, %q", c.in, name, args, err, c.name, c.args)
		}
	}
	bad := map[string]string{
		"":                            "empty spec",
		"  ":                          "empty spec",
		"pgd(":                        "missing closing parenthesis",
		"pgd(eps=0.1":                 "missing closing parenthesis",
		"pgd)":                        "unbalanced",
		"pgd(a))":                     "unbalanced",
		"(eps=0.1)":                   "has no name",
		"pgd,fgsm":                    "malformed",
		"eps=1":                       "malformed",
		"pgd(a)x":                     "text after",
		"pgd(a)(b)":                   "text after",
		strings.Repeat("x", maxLen+1): "limit 4096",
		nest(maxDepth + 1):            "nested deeper than 8",
		"chain(" + strings.Repeat("tv,", maxSpecs) + "tv)": "names 34 specs, limit 32",
	}
	for in, want := range bad {
		if _, _, err := Split(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Split(%.40q) error = %v, want mention of %q", in, err, want)
		}
	}
	if _, _, err := Split(nest(maxDepth)); err != nil {
		t.Errorf("Split at the depth limit: %v", err)
	}
	// key=value items are knobs, not specs: only the names count.
	atLimit := "detect(squeezers=(" + strings.Repeat("tv(lambda=0.1,iters=10),", maxSpecs-2) + "tv),thr=1)"
	if _, _, err := Split(atLimit); err != nil {
		t.Errorf("Split at the spec-count limit: %v", err)
	}
	// A rejected spec is quoted clipped, not echoed whole.
	if _, _, err := Split(strings.Repeat("(", 1<<20)); err == nil || len(err.Error()) > 200 {
		t.Errorf("oversized spec error is %d bytes", len(err.Error()))
	}
}

// nest returns "c(c(...c(x)...))" with depth opening parentheses.
func nest(depth int) string {
	return strings.Repeat("c(", depth) + "x" + strings.Repeat(")", depth)
}

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"a", []string{"a"}},
		{" a(x=1,y=2) , b ", []string{"a(x=1,y=2)", "b"}},
		{"a,,b", []string{"a", "", "b"}},
		{"a,", []string{"a", ""}},
		{"k=(p,q),t=1", []string{"k=(p,q)", "t=1"}},
	}
	for _, c := range cases {
		got, err := SplitList(c.in)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitList(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"a(", "a)", strings.Repeat(",", maxLen+1)} {
		if _, err := SplitList(in); err == nil {
			t.Errorf("SplitList(%.20q) accepted", in)
		}
	}
	if got := SplitSpecs(" a(x=1,y=2) , b, ,none "); !reflect.DeepEqual(got, []string{"a(x=1,y=2)", "b", "none"}) {
		t.Errorf("SplitSpecs dropped or kept the wrong elements: %q", got)
	}
	if got := SplitSpecs("a(,b"); !reflect.DeepEqual(got, []string{"a(,b"}) {
		t.Errorf("SplitSpecs on an unbalanced list = %q, want it whole", got)
	}
}

type colour int

func (c colour) String() string { return [...]string{"red", "green"}[c] }

// knobs is one of every Param kind, bound to local fields.
type knobs struct {
	n       int
	f       float64
	u       uint64
	b       bool
	c       colour
	items   []string
	rebuilt int
}

func (k *knobs) params() []Param {
	return []Param{
		Int("n", "an int", &k.n, 1, 16).Then(func() { k.rebuilt++ }),
		Float("f", "a float", &k.f, -10, 10),
		Uint("u", "a seed", &k.u),
		Bool("b", "a flag", &k.b),
		Enum("c", "a colour", &k.c, colour(0), colour(1)),
		List("items", "nested specs", &k.items, strings.Clone, func(s string) (string, error) { return s, nil }),
	}
}

func TestAssignAndFormat(t *testing.T) {
	k := knobs{n: 1}
	if err := Assign(k.params(), " N = 4 , f=0.25, u=18446744073709551615, b=TRUE, c=Green, items=( a(x=1) , b ), n=5"); err != nil {
		t.Fatal(err)
	}
	want := knobs{n: 5, f: 0.25, u: 1<<64 - 1, b: true, c: 1, items: []string{"a(x=1)", "b"}, rebuilt: 2}
	if !reflect.DeepEqual(k, want) {
		t.Fatalf("assigned %+v, want %+v", k, want)
	}
	canon := Format("thing", k.params())
	if canon != "thing(n=5,f=0.25,u=18446744073709551615,b=true,c=green,items=(a(x=1),b))" {
		t.Fatalf("Format = %q", canon)
	}
	var again knobs
	_, args, err := Split(canon)
	if err != nil {
		t.Fatal(err)
	}
	if err := Assign(again.params(), args); err != nil || Format("thing", again.params()) != canon {
		t.Fatalf("Format does not round-trip through Assign: %v, %q", err, Format("thing", again.params()))
	}
	if Format("bare", nil) != "bare" {
		t.Error("a knob-less spec must render bare")
	}
	if err := Assign(k.params(), "  "); err != nil {
		t.Errorf("blank args: %v", err)
	}

	// Every rejection names its reason and leaves the field untouched.
	bad := map[string]string{
		"n=0":          "must be in [1, 16], got 0",
		"n=17":         "must be in [1, 16], got 17",
		"n=1.5":        "want an integer",
		"f=11":         "must be in [-10, 10], got 11",
		"f=NaN":        "must be in [-10, 10], got NaN",
		"f=Inf":        "got +Inf",
		"f=-Inf":       "got -Inf",
		"f=1e999":      "want a number",
		"u=-1":         "want an unsigned integer",
		"b=maybe":      "want true or false",
		"c=blue":       "want red|green",
		"items=a":      "want a parenthesized list",
		"items=(a,,b)": "item 2 is empty",
		"items=()":     "list is empty",
		"items=(a))":   "unbalanced",
		"bogus=1":      `unknown param "bogus" (have n, f, u, b, c, items)`,
		"n":            "want key=value",
		"n=":           "want key=value",
		"=1":           "want key=value",
		",n=2":         "want key=value",
		",":            "want key=value",
	}
	for args, wantErr := range bad {
		before := k
		err := Assign(k.params(), args)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("Assign(%q) error = %v, want mention of %q", args, err, wantErr)
		}
		if !reflect.DeepEqual(k, before) {
			t.Errorf("Assign(%q) was rejected but changed %+v to %+v", args, before, k)
		}
	}
	if err := Assign(nil, "x=1"); err == nil || !strings.Contains(err.Error(), "accepts no parameters") {
		t.Errorf("Assign to a knob-less spec = %v", err)
	}
}

func TestFloatNeedsFiniteRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Float with an infinite bound did not panic at declaration")
		}
	}()
	var f float64
	Float("f", "unbounded", &f, 0, 1/f)
}

// FuzzSplit throws arbitrary strings at the tokenizer and the
// assignment loop: never a panic, nothing over the limits gets through,
// and whatever Assign accepts Format renders back into a spec that
// assigns to the identical configuration. Run longer with:
//
//	go test ./internal/spec -run '^$' -fuzz '^FuzzSplit$' -fuzztime 30s
func FuzzSplit(f *testing.F) {
	f.Add("thing(n=5,f=0.25,u=7,b=true,c=green,items=(a(x=1),b))")
	f.Add("thing( N = 2 , items = ( chain(a,b) ) )")
	f.Add("thing(f=NaN)")
	f.Add("thing(n=2,,)")
	f.Add("chain(chain(chain(chain(chain(chain(chain(chain(chain(x)))))))))")
	f.Add("a)(b")
	f.Add("((((")
	f.Add("")

	f.Fuzz(func(t *testing.T, s string) {
		name, args, err := Split(s)
		if err != nil {
			return
		}
		if len(args) > maxLen || strings.Count(args, "(") >= maxLen {
			t.Fatalf("Split(%q) let an oversized argument list through", s)
		}
		if _, err := SplitList(args); err != nil {
			t.Fatalf("Split(%q) accepted, but its args %q do not split: %v", s, args, err)
		}
		k := knobs{n: 1, items: []string{"x"}}
		if Assign(k.params(), args) != nil {
			return
		}
		canon := Format(name, k.params())
		if len(canon) > maxLen {
			return // an arbitrary name can be as long as the limit; registry names are not
		}
		name2, args2, err := Split(canon)
		if err != nil || name2 != name {
			t.Fatalf("Format output %q does not split back to %q: %q, %v", canon, name, name2, err)
		}
		again := knobs{n: 1, items: []string{"x"}}
		if err := Assign(again.params(), args2); err != nil {
			t.Fatalf("Format output %q does not assign: %v", canon, err)
		}
		if got := Format(name, again.params()); got != canon {
			t.Fatalf("round trip unstable: %q -> %q", canon, got)
		}
	})
}
