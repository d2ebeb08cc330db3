// Package spec is the one grammar behind every "name(key=value,...)"
// string in the repo: attack, filter (and chain), detector and
// adaptive-mode specs. A spec is request-facing input — /v1/defend,
// /v1/attack, /v1/detect, /v1/evaluate and every CLI flag take one — so
// the tokenizer, the size limits and the numeric range checks live
// here, once; the four Parse functions are registries that map a name
// to a constructor and hand its Params to Assign.
//
//	spec  = name [ "(" [ item { "," item } ] ")" ]
//	item  = key "=" value
//	value = scalar | "(" [ spec { "," spec } ] ")"
//
// Names, keys and enum values are case-insensitive; whitespace around
// every token is ignored; an empty list item is an error; a repeated
// key keeps the last value; a number outside its knob's declared finite
// range is an error, never clamped. Errors carry no package prefix —
// the registries add theirs.
package spec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Limits on any one spec string. A spec reaches Split before admission
// control and outside every route deadline, so the work it can cause is
// bounded here: the scan is linear in at most maxLen bytes, a registry
// recursing into nested specs (chain stages, detector squeezers) goes
// at most maxDepth deep, and one string names at most maxSpecs attacks,
// filters or detectors in total. Depth and spec count survive
// canonicalization (Format adds default knobs, never specs) and
// maxSpecs of the longest canonical filter spec fit in maxLen — so
// whatever parses, its canonical name parses too.
const (
	maxLen   = 4 << 10
	maxDepth = 8
	maxSpecs = 32
)

// scan is the tokenizer: one pass over s that enforces the limits and
// paren balance, and reports the depth-0 commas plus the first "(" and
// the ")" that closes it (-1 when absent).
func scan(s string) (commas []int, open, shut int, err error) {
	if len(s) > maxLen {
		return nil, 0, 0, fmt.Errorf("spec is %d bytes, limit %d", len(s), maxLen)
	}
	open, shut = -1, -1
	// A list item is a nested spec unless it is a key=value pair, i.e.
	// unless an "=" appears at the item's own depth.
	var filled, keyed [maxDepth + 1]bool
	depth, specs := 0, 0
	endItem := func() {
		if filled[depth] && !keyed[depth] {
			specs++
		}
		filled[depth], keyed[depth] = false, false
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			filled[depth] = true
			if depth++; depth > maxDepth {
				return nil, 0, 0, fmt.Errorf("nested deeper than %d levels", maxDepth)
			}
			if open < 0 {
				open = i
			}
		case ')':
			endItem()
			if depth--; depth < 0 {
				return nil, 0, 0, errors.New("unbalanced closing parenthesis")
			}
			if depth == 0 && shut < 0 {
				shut = i
			}
		case ',':
			endItem()
			if depth == 0 {
				commas = append(commas, i)
			}
		case '=':
			keyed[depth] = true
		case ' ', '\t', '\n', '\r':
		default:
			filled[depth] = true
		}
	}
	if depth > 0 {
		return nil, 0, 0, errors.New("missing closing parenthesis")
	}
	if endItem(); specs > maxSpecs {
		return nil, 0, 0, fmt.Errorf("names %d specs, limit %d", specs, maxSpecs)
	}
	return commas, open, shut, nil
}

// Split separates "name(args)" into its lower-cased name and trimmed
// argument list; a bare "name" has empty args. Errors quote the spec
// clipped, so a hostile megabyte is not echoed back.
func Split(s string) (name, args string, err error) {
	s = strings.TrimSpace(s)
	fail := func(reason string) (string, string, error) {
		if len(s) > 64 {
			s = s[:64] + "..."
		}
		return "", "", fmt.Errorf("spec %q: %s", s, reason)
	}
	if s == "" {
		return fail("empty spec")
	}
	commas, open, shut, err := scan(s)
	switch {
	case err != nil:
		return fail(err.Error())
	case open < 0 && (len(commas) > 0 || strings.Contains(s, "=")):
		return fail("malformed, want name(key=value,...)")
	case open < 0:
		return strings.ToLower(s), "", nil
	case shut != len(s)-1:
		return fail("text after the closing parenthesis")
	}
	if name = strings.ToLower(strings.TrimSpace(s[:open])); name == "" {
		return fail("has no name")
	}
	return name, strings.TrimSpace(s[open+1 : shut]), nil
}

// SplitList splits a comma-separated list at paren depth zero, so
// nested specs survive intact. Items are trimmed; a blank list has no
// items. An empty item comes back as "" for the caller to reject
// (Assign and List do) or, at flag level, to drop (SplitSpecs).
func SplitList(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	commas, _, _, err := scan(s)
	if err != nil {
		return nil, err
	}
	items := make([]string, 0, len(commas)+1)
	start := 0
	for _, c := range append(commas, len(s)) {
		items = append(items, strings.TrimSpace(s[start:c]))
		start = c + 1
	}
	return items, nil
}

// SplitSpecs splits a flag-level list of specs ("-attacks
// pgd(eps=0.03,steps=40),fgsm"). Unlike a list inside a spec, a stray
// comma's empty element is dropped — the CLIs always have. The flag is
// still one string under the tokenizer's limits; a list it rejects
// comes back whole, so parsing it reports the reason.
func SplitSpecs(list string) []string {
	items, err := SplitList(list)
	if err != nil {
		return []string{strings.TrimSpace(list)}
	}
	var out []string
	for _, it := range items {
		if it != "" {
			out = append(out, it)
		}
	}
	return out
}

// Param describes one tunable knob. The closures keep the contract
// reflection-free: each attack, filter or detector binds descriptors to
// its own struct fields.
type Param struct {
	// Name is the spec key, e.g. "eps" in "pgd(eps=0.03)".
	Name string
	// Doc is a one-line description for listings and the reference docs.
	Doc string
	// Get renders the current value in the canonical spec syntax.
	Get func() string
	// Set parses a spec value, validates it and assigns it. A rejected
	// value leaves the field untouched — never clamped, never a panic.
	Set func(string) error
	// domain renders the accepted values. Descriptors are rebuilt on
	// every Name() call, so it is formatted only when asked for.
	domain func() string
}

// Range renders the accepted values, e.g. "[1, 16]" or "l1|top1".
func (p Param) Range() string { return p.domain() }

// Then returns p with hook run after every successful assignment, for
// knobs with derived state (stencil tap tables) to rebuild.
func (p Param) Then(hook func()) Param {
	set := p.Set
	p.Set = func(v string) error {
		err := set(v)
		if err == nil {
			hook()
		}
		return err
	}
	return p
}

// Int binds an int field accepting lo..hi inclusive.
func Int(name, doc string, field *int, lo, hi int) Param {
	rng := func() string { return "[" + strconv.Itoa(lo) + ", " + strconv.Itoa(hi) + "]" }
	return Param{
		Name: name, Doc: doc, domain: rng,
		Get: func() string { return strconv.Itoa(*field) },
		Set: func(v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("want an integer, got %q", v)
			}
			if n < lo || n > hi {
				return fmt.Errorf("must be in %s, got %d", rng(), n)
			}
			*field = n
			return nil
		},
	}
}

// MinPositive is the floor of every knob that must be positive: ranges
// are closed, and below it a squared scale underflows toward 0/0.
const MinPositive = 1e-6

// Float binds a float64 field accepting lo..hi inclusive. Both bounds
// must be finite, which is also what rejects NaN and ±Inf values: no
// comparison against a finite bound holds for them.
func Float(name, doc string, field *float64, lo, hi float64) Param {
	if !(lo <= hi && hi-lo <= math.MaxFloat64) { // the width is finite only if both bounds are
		panic("spec: param " + name + " declared without a finite range")
	}
	rng := func() string { return "[" + formatFloat(lo) + ", " + formatFloat(hi) + "]" }
	return Param{
		Name: name, Doc: doc, domain: rng,
		Get: func() string { return formatFloat(*field) },
		Set: func(v string) error {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("want a number, got %q", v)
			}
			if !(f >= lo && f <= hi) {
				return fmt.Errorf("must be in %s, got %s", rng(), formatFloat(f))
			}
			*field = f
			return nil
		},
	}
}

// formatFloat renders v with the shortest representation that parses
// back to the identical float64, so Format output round-trips exactly.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Uint binds a uint64 field (RNG seeds); every uint64 is accepted.
func Uint(name, doc string, field *uint64) Param {
	return Param{
		Name: name, Doc: doc, domain: func() string { return "uint64" },
		Get: func() string { return strconv.FormatUint(*field, 10) },
		Set: func(v string) error {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("want an unsigned integer, got %q", v)
			}
			*field = n
			return nil
		},
	}
}

// Bool binds a bool field.
func Bool(name, doc string, field *bool) Param {
	return Param{
		Name: name, Doc: doc, domain: func() string { return "true|false" },
		Get: func() string { return strconv.FormatBool(*field) },
		Set: func(v string) error {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return fmt.Errorf("want true or false, got %q", v)
			}
			*field = b
			return nil
		},
	}
}

// Enum binds a field to one of options, matched case-insensitively by
// their String() token.
func Enum[T fmt.Stringer](name, doc string, field *T, options ...T) Param {
	rng := func() string {
		tokens := make([]string, len(options))
		for i, o := range options {
			tokens[i] = o.String()
		}
		return strings.Join(tokens, "|")
	}
	return Param{
		Name: name, Doc: doc, domain: rng,
		Get: func() string { return (*field).String() },
		Set: func(v string) error {
			for _, o := range options {
				if strings.EqualFold(o.String(), v) {
					*field = o
					return nil
				}
			}
			return fmt.Errorf("want %s, got %q", rng(), v)
		},
	}
}

// List binds a slice field to a parenthesized, non-empty list of nested
// specs, "(a(x=1),b)", each item parsed by parse and rendered by format.
func List[T any](name, doc string, field *[]T, format func(T) string, parse func(string) (T, error)) Param {
	return Param{
		Name: name, Doc: doc, domain: func() string { return "(spec,...)" },
		Get: func() string {
			specs := make([]string, len(*field))
			for i, it := range *field {
				specs[i] = format(it)
			}
			return "(" + strings.Join(specs, ",") + ")"
		},
		Set: func(v string) error {
			if len(v) < 2 || v[0] != '(' || v[len(v)-1] != ')' {
				return fmt.Errorf("want a parenthesized list, got %q", v)
			}
			specs, err := SplitList(v[1 : len(v)-1])
			if err != nil {
				return err
			}
			if len(specs) == 0 {
				return errors.New("list is empty")
			}
			items := make([]T, len(specs))
			for i, s := range specs {
				if s == "" {
					return fmt.Errorf("item %d is empty", i+1)
				}
				if items[i], err = parse(s); err != nil {
					return fmt.Errorf("item %q: %w", s, err)
				}
			}
			*field = items
			return nil
		},
	}
}

// Assign applies a "k=v,k=v" argument list to ps in order. Blank args
// assign nothing; a repeated key keeps the last value. It stops at the
// first bad item with the items before it already assigned — the
// registries assign to a fresh instance and drop it on error.
func Assign(ps []Param, args string) error {
	items, err := SplitList(args)
	if err != nil {
		return err
	}
	if len(items) > 0 && len(ps) == 0 {
		return errors.New("accepts no parameters")
	}
	for _, kv := range items {
		key, value, found := strings.Cut(kv, "=")
		key, value = strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(value)
		if !found || key == "" || value == "" {
			return fmt.Errorf("want key=value, got %q", kv)
		}
		i := 0
		for i < len(ps) && ps[i].Name != key {
			i++
		}
		if i == len(ps) {
			known := make([]string, len(ps))
			for j, p := range ps {
				known[j] = p.Name
			}
			return fmt.Errorf("unknown param %q (have %s)", key, strings.Join(known, ", "))
		}
		if err := ps[i].Set(value); err != nil {
			return fmt.Errorf("param %s: %w", key, err)
		}
	}
	return nil
}

// Format renders the canonical "name(k=v,...)" spec; a knob-less name
// renders bare. Every value is formatted to parse back to itself, so
// parsing Format's output reconstructs exactly the same configuration.
func Format(name string, ps []Param) string {
	if len(ps) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for i, p := range ps {
		if i == 0 {
			sb.WriteByte('(')
		} else {
			sb.WriteByte(',')
		}
		sb.WriteString(p.Name)
		sb.WriteByte('=')
		sb.WriteString(p.Get())
	}
	sb.WriteByte(')')
	return sb.String()
}
