package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
)

// An image travels as the opening of a JSON object,
//
//	{"pixels":[0.5NNNNNNNNNNNNNN,p1,…,p3071],"shape":[3,32,32]
//
// encoded as json.Marshal would, except that pixel 0 is a fixed-width
// literal. Overwriting that literal with a fresh counter value makes the
// image unique — a memcpy for the generator, a guaranteed content-cache
// miss for the server. Fifteen significant digits keep distinct counters
// distinct float64s.
const (
	imageOpen  = `{"pixels":[`
	litOffset  = len(imageOpen)
	litDigits  = 14
	litLen     = len("0.5") + litDigits
	counterMax = 100_000_000_000_000 // 10^litDigits
)

// encodeImage renders the wire opening of pix with counter 0 in the slot.
func encodeImage(pix []float64) []byte {
	rest, err := json.Marshal(pix[1:])
	if err != nil {
		panic(err) // finite float64s always marshal
	}
	b := append([]byte(imageOpen), make([]byte, litLen)...)
	putLiteral(b[litOffset:], 0)
	b = append(b, ',')
	b = append(b, rest[1:]...) // drop the tail's own '['
	return append(b, `,"shape":[3,`+strconv.Itoa(imageSide)+`,`+strconv.Itoa(imageSide)+`]`...)
}

// putLiteral writes counter's fixed-width literal into dst[:litLen].
func putLiteral(dst []byte, counter uint64) {
	copy(dst, "0.5")
	for i := litLen - 1; i >= 3; i-- {
		dst[i] = byte('0' + counter%10)
		counter /= 10
	}
}

// literalValue is the float64 the server parses the literal to.
func literalValue(counter uint64) float64 {
	var b [litLen]byte
	putLiteral(b[:], counter)
	v, err := strconv.ParseFloat(string(b[:]), 64)
	if err != nil {
		panic(err)
	}
	return v
}

// withLiteral is the image the server sees for (pix, counter).
func withLiteral(pix []float64, counter uint64) []float64 {
	out := append([]float64(nil), pix...)
	out[0] = literalValue(counter)
	return out
}

// Counter layout: no two requests of one run share a value. Streams are
// (phase, client) pairs; each gets a private block of 10^9 counters, and
// the seed shifts the whole layout.
const (
	streamBlock = 1_000_000_000
	maxStreams  = 100
)

func counterBase(seed uint64, phase, client int) uint64 {
	stream := uint64(phase*maxClients + client)
	return (seed%1000)*maxStreams*streamBlock + stream*streamBlock
}

const (
	phaseHot = iota // fixed hot-set images: counter = image index
	phaseWarm
	phaseMeasure
	phaseLadder
	maxClients = 8
)

// request is one generated operation: which images it carries, the
// counters that make them unique, and the defend spec (if any).
type request struct {
	images   []int
	counters []uint64
	spec     int
}

// plan generates a client's request sequence for one phase of one
// workload. The nth request of a (seed, workload, phase, client) stream
// is always the same, whatever the timing of the run.
type plan struct {
	w      *workload
	rng    *rand.Rand
	images int
	next   uint64 // next unique counter
	n      int
	walk   []int // defend_mix: this client's share of the pool, in seeded order
}

func seededRand(format string, args ...any) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf(format, args...)))
	return rand.New(rand.NewPCG(binary.LittleEndian.Uint64(h[:8]), binary.LittleEndian.Uint64(h[8:16])))
}

func newPlan(w *workload, seed uint64, phase, client, images int) *plan {
	p := &plan{
		w: w, images: images, next: counterBase(seed, phase, client),
		rng: seededRand("%s/%d/%d/%d", w.name, seed, phase, client),
	}
	if w.defend {
		// /v1/defend also caches the prediction of the filtered image, and
		// bitdepth, median and jpeg erase the one-pixel difference between
		// two variants of an image. So each client walks its own share of
		// the pool in a seeded order, one spec after the other per image:
		// an (image, spec) pair comes round again only after share × specs
		// requests, long after the LRU has dropped it. The measure phase
		// starts half a lap away from where the warm-up started.
		share := images / loadClients
		p.walk = seededRand("%s/%d/walk", w.name, seed).Perm(images)[client*share : (client+1)*share]
		if phase == phaseMeasure {
			p.n = share * len(defendSpecs) / 2
		}
	}
	return p
}

func (p *plan) request() request {
	r := request{spec: -1}
	for i := 0; i < p.w.perRequest; i++ {
		switch {
		case p.w.hotSet > 0:
			// Skewed popularity: u² puts half the traffic on the first
			// quarter of the hot set.
			u := p.rng.Float64()
			idx := int(u * u * float64(p.w.hotSet))
			r.images = append(r.images, idx)
			r.counters = append(r.counters, uint64(idx))
			continue
		case p.w.defend:
			r.images = append(r.images, p.walk[p.n/len(defendSpecs)%len(p.walk)])
			r.spec = p.n % len(defendSpecs)
		default:
			r.images = append(r.images, p.rng.IntN(p.images))
		}
		r.counters = append(r.counters, p.next)
		p.next++
	}
	p.n++
	return r
}

// body assembles the request's wire form into buf (reused across calls).
func (w *workload) body(buf []byte, encoded [][]byte, r request) []byte {
	buf = buf[:0]
	if w.perRequest > 1 {
		buf = append(buf, `{"images":[`...)
	}
	for i, img := range r.images {
		if i > 0 {
			buf = append(buf, ',')
		}
		at := len(buf)
		buf = append(buf, encoded[img]...)
		putLiteral(buf[at+litOffset:], r.counters[i])
		if w.perRequest > 1 {
			buf = append(buf, '}')
		}
	}
	if w.perRequest > 1 {
		buf = append(buf, ']')
	}
	switch {
	case r.spec >= 0:
		buf = append(buf, `,"filter":"`+defendSpecs[r.spec].spec+`","predict":true,"return_pixels":false`...)
	case w.precision != "":
		buf = append(buf, `,"tm":"2","precision":"`+w.precision+`"`...)
	default:
		buf = append(buf, `,"tm":"2"`...)
	}
	return append(buf, '}')
}
