package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// This file is the request side of the wire: one single-pass JSON
// decoder shared by every POST route. A request struct's json tags are
// its schema, read once per type into a cached field table (wireFields)
// — the decoder's only reflection; the decoder walks the body once and
// decodes each member by the type of its destination. "pixels" arrays
// — 58 KB of a 58 KB /v1/predict body — go through a strict RFC 8259
// number scanner into strconv.ParseFloat, the function encoding/json
// itself calls, so every pixel is bit-identical by construction. Plain
// strings and integer lists are read directly; anything else (escapes,
// null, duplicates of a member already decoded, type mismatches) is
// handed to encoding/json as the member's raw span, so its semantics are
// encoding/json's without being restated here. On every body
// json.Unmarshal accepts, the result is reflect.DeepEqual to
// json.Unmarshal's (FuzzWireDecode).

// wireField is one member a request struct decodes: its JSON name and
// the index path of the field that takes it.
type wireField struct {
	name  string
	index []int
}

// wireFieldTables caches wireFields per struct type.
var wireFieldTables sync.Map // reflect.Type → []wireField

// wireFields returns the member table of struct type t, read from its
// json tags as encoding/json reads them: the tag name before the comma,
// or the Go name when the tag has none. Unexported, anonymous and "-"
// fields are skipped, so an embedded struct's fields are promoted.
func wireFields(t reflect.Type) []wireField {
	if fs, ok := wireFieldTables.Load(t); ok {
		return fs.([]wireField)
	}
	var fs []wireField
	for _, f := range reflect.VisibleFields(t) {
		tag := f.Tag.Get("json")
		if f.Anonymous || !f.IsExported() || tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		fs = append(fs, wireField{name: name, index: f.Index})
	}
	cached, _ := wireFieldTables.LoadOrStore(t, fs)
	return cached.([]wireField)
}

// maxWireDepth is encoding/json's nesting limit; the decoder counts depth
// in a field and never recurses on input, so depth cannot grow the stack.
const maxWireDepth = 10000

// maxPooledBody is the largest body buffer kept for reuse (a 16-image
// batch is 940 KB); a rare huge body is not pinned in the pool.
const maxPooledBody = 4 << 20

// wireDecoder decodes one body. It is pooled with its buffers.
type wireDecoder struct {
	buf   []byte // the body
	pos   int    // next unread byte of buf
	depth int    // open objects and arrays around pos
	open  []byte // skipValue's stack of open '{' / '['
}

var wirePool = sync.Pool{New: func() any { return new(wireDecoder) }}

// release returns the decoder to the pool. Nothing decoded aliases buf.
func (d *wireDecoder) release() {
	if cap(d.buf) > maxPooledBody {
		d.buf = nil
	}
	wirePool.Put(d)
}

// decode fills dst from d.buf, which must hold exactly one JSON value.
func (d *wireDecoder) decode(dst any) error {
	d.pos, d.depth, d.open = 0, 0, d.open[:0]
	if err := d.object(dst); err != nil {
		return err
	}
	if d.space(); d.pos < len(d.buf) {
		return d.errAt(d.pos, "unexpected data after the top-level value")
	}
	return nil
}

func (d *wireDecoder) errAt(pos int, msg string) error {
	if pos >= len(d.buf) {
		return fmt.Errorf("offset %d: unexpected end of JSON input", len(d.buf))
	}
	return fmt.Errorf("offset %d: %s", pos, msg)
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }
func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipSpace(buf []byte, i int) int {
	for i < len(buf) && isSpace(buf[i]) {
		i++
	}
	return i
}

func (d *wireDecoder) space() { d.pos = skipSpace(d.buf, d.pos) }

// peek returns the next byte, or 0 (valid nowhere in JSON) at the end.
func (d *wireDecoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// enter steps over the '[' or '{' at pos.
func (d *wireDecoder) enter() error {
	if d.depth++; d.depth > maxWireDepth {
		return d.errAt(d.pos, "exceeded max depth")
	}
	d.pos++
	return nil
}

// empty steps over the closing byte when it directly follows the opening
// one and reports whether it did.
func (d *wireDecoder) empty(closing byte) bool {
	if d.space(); d.peek() != closing {
		return false
	}
	d.pos++
	d.depth--
	return true
}

// next steps over the ',' or the closing byte that follows a value inside
// an array or object and reports whether the container closed.
func (d *wireDecoder) next(closing byte) (closed bool, err error) {
	d.space()
	switch c := d.peek(); c {
	case ',':
		d.pos++
		return false, nil
	case closing:
		d.pos++
		d.depth--
		return true, nil
	}
	return false, d.errAt(d.pos, "want ',' or '"+string(closing)+"' after a value")
}

// object decodes the value at pos into dst, a pointer to a request
// struct, member by member. A member name selects a field as encoding/json
// matches them: under Unicode simple case folding (its exact-match-first
// rule only matters when two names fold together, which no request type
// has: TestWireNamesDoNotFold).
func (d *wireDecoder) object(dst any) error {
	if d.space(); d.peek() != '{' {
		return d.std(dst) // null is a no-op, the rest type errors: encoding/json's call
	}
	if err := d.enter(); err != nil {
		return err
	}
	if d.empty('}') {
		return nil
	}
	v := reflect.ValueOf(dst).Elem()
	fields := wireFields(v.Type())
	for {
		raw, err := d.name()
		if err != nil {
			return err
		}
		key := raw[1 : len(raw)-1]
		if bytes.IndexByte(raw, '\\') >= 0 {
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				return err
			}
			key = []byte(s)
		}
		var field any
		for _, f := range fields {
			if strings.EqualFold(string(key), f.name) {
				field = v.FieldByIndex(f.index).Addr().Interface()
				break
			}
		}
		d.space()
		if err := d.member(field); err != nil {
			return fmt.Errorf("member %q: %w", key, err)
		}
		if closed, err := d.next('}'); closed || err != nil {
			return err
		}
	}
}

// member decodes the value at pos into dst, a field pointer (nil for a
// member the struct does not have), choosing the decoder by dst's type.
func (d *wireDecoder) member(dst any) error {
	switch dst := dst.(type) {
	case nil:
		return d.skipValue()
	case *[]float64:
		return d.floats(dst)
	case *[]int:
		return d.ints(dst)
	case *string:
		return d.str(dst)
	case *[]imagePayload:
		return wireArray(d, dst)
	case *[]evalHTTPCase:
		return wireArray(d, dst)
	}
	return d.std(dst)
}

// span validates the value at pos, steps over it and returns its bytes.
func (d *wireDecoder) span() ([]byte, error) {
	start := d.pos
	err := d.skipValue()
	return d.buf[start:d.pos], err
}

// std hands the value at pos to encoding/json.
func (d *wireDecoder) std(dst any) error {
	span, err := d.span()
	if err != nil {
		return err
	}
	return json.Unmarshal(span, dst)
}

// wireArray decodes an array of objects. A second occurrence of the
// member decodes into the elements of the first under encoding/json, so
// that case is left to it.
func wireArray[T any](d *wireDecoder, dst *[]T) error {
	if *dst != nil || d.peek() != '[' {
		return d.std(dst)
	}
	if err := d.enter(); err != nil {
		return err
	}
	out := []T{}
	if d.empty(']') {
		*dst = out
		return nil
	}
	for {
		var zero T
		out = append(out, zero)
		if err := d.object(&out[len(out)-1]); err != nil {
			return err
		}
		if closed, err := d.next(']'); closed || err != nil {
			*dst = out
			return err
		}
	}
}

// floats decodes an array of numbers: the hot loop of the wire path.
func (d *wireDecoder) floats(dst *[]float64) error {
	if *dst != nil || d.peek() != '[' {
		return d.std(dst) // as in wireArray
	}
	if err := d.enter(); err != nil {
		return err
	}
	// Size the slice from the bytes that are here — one element per comma
	// up to the first ']' — never from the client-declared shape.
	n := 0
	if end := bytes.IndexByte(d.buf[d.pos:], ']'); end > 0 {
		n = bytes.Count(d.buf[d.pos:d.pos+end], []byte{','}) + 1
	}
	out := make([]float64, 0, n)
	if d.empty(']') {
		*dst = out
		return nil
	}
	for {
		d.space()
		if end, ok := scanNumber(d.buf, d.pos); ok {
			f, err := strconv.ParseFloat(string(d.buf[d.pos:end]), 64)
			if err != nil {
				return fmt.Errorf("offset %d: %w", d.pos, err)
			}
			out = append(out, f)
			d.pos = end
		} else {
			// null leaves the element zero; anything else is an error.
			out = append(out, 0)
			if err := d.std(&out[len(out)-1]); err != nil {
				return err
			}
		}
		if closed, err := d.next(']'); closed || err != nil {
			*dst = out
			return err
		}
	}
}

// scanNumber scans one RFC 8259 number at buf[i:]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(buf []byte, i int) (end int, ok bool) {
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	if i >= len(buf) || !isDigit(buf[i]) {
		return i, false
	}
	if i++; buf[i-1] != '0' {
		for i < len(buf) && isDigit(buf[i]) {
			i++
		}
	}
	if i < len(buf) && buf[i] == '.' {
		i++
		if i >= len(buf) || !isDigit(buf[i]) {
			return i, false
		}
		for i < len(buf) && isDigit(buf[i]) {
			i++
		}
	}
	if i < len(buf) && buf[i]|0x20 == 'e' {
		i++
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		if i >= len(buf) || !isDigit(buf[i]) {
			return i, false
		}
		for i < len(buf) && isDigit(buf[i]) {
			i++
		}
	}
	return i, true
}

// ints decodes an image shape: a short list of plain integers.
func (d *wireDecoder) ints(dst *[]int) error {
	span, err := d.span()
	if err != nil {
		return err
	}
	if *dst == nil {
		if out, ok := plainInts(span); ok {
			*dst = out
			return nil
		}
	}
	return json.Unmarshal(span, dst)
}

// plainInts parses span, a valid JSON value, when it is an array of
// integer literals that cannot overflow; ok is false for everything else.
func plainInts(span []byte) (out []int, ok bool) {
	if span[0] != '[' {
		return nil, false
	}
	out = make([]int, 0, bytes.Count(span, []byte{','})+1)
	i := skipSpace(span, 1)
	if span[i] == ']' {
		return out, true
	}
	// span is valid JSON ending in ']', which stops every loop below.
	for {
		i = skipSpace(span, i)
		neg := span[i] == '-'
		if neg {
			i++
		}
		first, v := i, int64(0)
		for isDigit(span[i]) {
			v = v*10 + int64(span[i]-'0')
			i++
		}
		if neg {
			v = -v
		}
		if i == first || i-first > 18 || int64(int(v)) != v {
			return nil, false
		}
		out = append(out, int(v))
		i = skipSpace(span, i)
		switch span[i] {
		case ',':
			i++
		case ']':
			return out, true
		default: // a fraction or an exponent
			return nil, false
		}
	}
}

// str decodes a string member; escapes, invalid UTF-8 and non-strings are
// encoding/json's.
func (d *wireDecoder) str(dst *string) error {
	span, err := d.span()
	if err != nil {
		return err
	}
	if span[0] == '"' && bytes.IndexByte(span, '\\') < 0 && utf8.Valid(span) {
		*dst = string(span[1 : len(span)-1])
		return nil
	}
	return json.Unmarshal(span, dst)
}

// skipValue validates the JSON value at pos and steps over it. Nesting is
// tracked on d.open, not the call stack.
func (d *wireDecoder) skipValue() error {
	base := len(d.open)
	for {
		// A value starts here.
		d.space()
		switch c := d.peek(); {
		case c == '{' || c == '[':
			d.open = append(d.open, c)
			if err := d.enter(); err != nil {
				return err
			}
			if d.empty(c + 2) { // '}' is '{'+2, ']' is '['+2
				d.open = d.open[:len(d.open)-1]
				break
			}
			if c == '{' {
				if _, err := d.name(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if err := d.skipString(); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			end, ok := scanNumber(d.buf, d.pos)
			if !ok {
				return d.errAt(end, "invalid number")
			}
			d.pos = end
		default:
			lit := ""
			switch c {
			case 't':
				lit = "true"
			case 'f':
				lit = "false"
			case 'n':
				lit = "null"
			}
			if rest := d.buf[d.pos:]; lit == "" || len(rest) < len(lit) || string(rest[:len(lit)]) != lit {
				return d.errAt(d.pos, "want a value")
			}
			d.pos += len(lit)
		}
		// A value ended: close containers until one continues.
		for {
			if len(d.open) == base {
				return nil
			}
			top := d.open[len(d.open)-1]
			closed, err := d.next(top + 2)
			if err != nil {
				return err
			}
			if !closed {
				if top == '{' {
					if _, err := d.name(); err != nil {
						return err
					}
				}
				break
			}
			d.open = d.open[:len(d.open)-1]
		}
	}
}

// name steps over a member name and its ':' and returns the name as
// written, quotes included.
func (d *wireDecoder) name() ([]byte, error) {
	if d.space(); d.peek() != '"' {
		return nil, d.errAt(d.pos, "want a member name")
	}
	start := d.pos
	if err := d.skipString(); err != nil {
		return nil, err
	}
	raw := d.buf[start:d.pos]
	if d.space(); d.peek() != ':' {
		return nil, d.errAt(d.pos, "want ':' after a member name")
	}
	d.pos++
	return raw, nil
}

// skipString validates the string whose opening quote is at pos.
func (d *wireDecoder) skipString() error {
	buf := d.buf
	for i := d.pos + 1; i < len(buf); i++ {
		switch c := buf[i]; {
		case c == '"':
			d.pos = i + 1
			return nil
		case c < 0x20:
			return d.errAt(i, "control character in string")
		case c == '\\':
			if i++; i >= len(buf) {
				return d.errAt(i, "")
			}
			switch buf[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(buf) || !isHex(buf[i+k]) {
						return d.errAt(i+k, "invalid \\u escape")
					}
				}
				i += 4
			default:
				return d.errAt(i, "invalid escape")
			}
		}
	}
	return d.errAt(len(buf), "")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c|0x20 && c|0x20 <= 'f'
}
