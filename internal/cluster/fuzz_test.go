package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"testing"
)

// FuzzExtractKey: any POST body or GET query yields a routing key or an
// error, never a panic, and rewriting only its tau/all fields changes
// neither the outcome nor the key. Seeds live in testdata/fuzz/FuzzExtractKey.
func FuzzExtractKey(f *testing.F) {
	f.Add([]byte(`{"x":[1,0,1,1],"tau":3}`), "x=1,0,1,1&tau=3", 7, false)
	f.Add([]byte(`{"x":[0,1],"all":true}`), "x=0,1&all=true", 0, true)
	f.Fuzz(func(t *testing.T, body []byte, query string, tau int, all bool) {
		_, key, err := extractKey(postRequest(body))
		// Prepend tau/all members to a JSON object body: the last "x" member
		// still decides the route, so the key must not move.
		var obj map[string]json.RawMessage
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); json.Unmarshal(body, &obj) == nil && obj != nil {
			fields := `{"tau":` + strconv.Itoa(tau) + `,"all":` + strconv.FormatBool(all)
			rewritten := []byte(fields + "}")
			if len(obj) > 0 {
				rewritten = append([]byte(fields+","), trimmed[1:]...)
			}
			_, key2, err2 := extractKey(postRequest(rewritten))
			checkSameRoute(t, "POST", key, err, key2, err2)
		}

		_, key, err = extractKey(getRequest(query))
		q, _ := url.ParseQuery(query) // keeps the pairs URL.Query keeps
		q.Set("tau", strconv.Itoa(tau))
		q.Set("all", strconv.FormatBool(all))
		_, key2, err2 := extractKey(getRequest(q.Encode()))
		checkSameRoute(t, "GET", key, err, key2, err2)
	})
}

func postRequest(body []byte) *http.Request {
	r, _ := http.NewRequest(http.MethodPost, "/estimate", bytes.NewReader(body))
	return r
}

func getRequest(rawQuery string) *http.Request {
	return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/estimate", RawQuery: rawQuery}}
}

func checkSameRoute(t *testing.T, method string, key uint64, err error, key2 uint64, err2 error) {
	t.Helper()
	if (err == nil) != (err2 == nil) {
		t.Fatalf("%s: rewriting tau/all changed the outcome: %v vs %v", method, err, err2)
	}
	if err == nil && key != key2 {
		t.Fatalf("%s: rewriting tau/all moved the key %x -> %x", method, key, key2)
	}
}
