package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gtsrb"
)

// fuzzRoutes are the POST routes FuzzRoutes drives; the route byte's top
// bit turns the request into a GET (405 everywhere but /v1/models).
var fuzzRoutes = []string{
	"/v1/predict", "/v1/predict_batch", "/v1/defend", "/v1/detect", "/v1/models", "/v1/attack", "/v1/evaluate",
}

// FuzzRoutes reaches past the wire decoder into the real in-process
// handler: decode → validate → admission → queue → deliver → forward →
// encode on the tiny fixture model, with a lane small enough to shed and
// a crafting budget small enough that /v1/attack and /v1/evaluate stay
// cheap. Whatever the body, the server never panics, answers with a
// status from its documented taxonomy, and the reply is valid JSON —
// carrying a machine-readable "code" whenever it is not a 200.
func FuzzRoutes(f *testing.F) {
	for i, body := range wireSeeds() {
		f.Add(uint8(i%len(fuzzRoutes)), body) // the fuzzer mutates the route byte from here
	}
	// Bodies that match the fixture's 3×16×16 input and so run a forward.
	f.Add(uint8(0), benchPredictBody(16))
	f.Add(uint8(1), benchBatchBody(3, 16))
	f.Add(uint8(1), benchBatchBody(5, 16)) // five misses against a four-slot lane: 429
	f.Add(uint8(2), benchDefendBody(16))
	f.Add(uint8(3), []byte(`{`+benchImage(gtsrb.ClassStop, 16)+`,"detector":"detect"}`))
	f.Add(uint8(4), []byte(`{"action":"unload","model":"nope@v1"}`))
	f.Add(uint8(5), []byte(`{"attack":"fgsm(eps=0.1)","source":1,"target":2,"tm":"3","adv":true}`))
	f.Add(uint8(6), []byte(`{"attacks":["fgsm(eps=0.1)"],"tms":["3"],"filters":["none","median(r=1)"],"cases":[{"source":1,"target":2}]}`))
	f.Add(uint8(0x84), []byte(nil))

	s := New(servePipeline(f), Options{
		Workers: 1, MaxBatch: 4, MaxWait: 100 * time.Microsecond, InteractiveLimit: 4,
		ClassName: gtsrb.ClassName, Render: gtsrb.Canonical,
		AttackBudget: Budget{MaxQueries: 50}, AttackTimeout: time.Second, EvaluateTimeout: 2 * time.Second,
	})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		method := http.MethodPost
		if route&0x80 != 0 {
			method = http.MethodGet
		}
		path := fuzzRoutes[int(route&0x7f)%len(fuzzRoutes)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("%s %s: status %d outside the taxonomy\nbody: %.200q\nreply: %.200s", method, path, rec.Code, body, rec.Body)
		}
		var reply map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("%s %s: %d reply is not a JSON object: %v\nbody: %.200q\nreply: %.200s", method, path, rec.Code, err, body, rec.Body)
		}
		if code, _ := reply["code"].(string); rec.Code != http.StatusOK && code == "" {
			t.Fatalf("%s %s: %d reply carries no code\nbody: %.200q\nreply: %.200s", method, path, rec.Code, body, rec.Body)
		}
	})
}
