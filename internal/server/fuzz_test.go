package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"viewupdate/internal/update"
)

// FuzzDecodeUpdate feeds an arbitrary request body through the update
// routes' front half — decodeBody, then the request builder and the
// translator against a small fixed engine, as an insert, a delete and a
// replace — stopping short of the commit so every input meets the same
// state. Nothing may panic, and whatever is refused must land in the
// client-error part of writeError's taxonomy: 400 bad_request, or 422
// when a well-formed request admits no (or no single) translation —
// never a 404, 409 or 5xx. The seed corpus is under
// testdata/fuzz/FuzzDecodeUpdate.
func FuzzDecodeUpdate(f *testing.F) {
	e, err := NewEngine(Config{MaxInFlight: 4, RequestTimeout: 5 * time.Second}, testScript+`
		INSERT INTO EMP VALUES (1, 'NY');
		INSERT INTO EMP VALUES (2, 'NY');
		INSERT INTO EMP VALUES (3, 'SF');`)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []update.Kind{update.Insert, update.Delete, update.Replace} {
			var body updateBody
			err := decodeBody(httptest.NewRequest("POST", "/views/NY/"+kind.String(), bytes.NewReader(data)), &body)
			if err == nil {
				_, _, _, _, err = e.Translate(context.Background(), "NY", body.Prefer, e.buildRequest(kind, body))
			}
			if err == nil {
				continue
			}
			rec := httptest.NewRecorder()
			writeError(rec, err)
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s %q: %d %s", kind, data, rec.Code, rec.Body)
			}
		}
	})
}
