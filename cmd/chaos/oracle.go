package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"medrelax/internal/server"
)

// The server appends /relax and /relax/batch bodies itself; encoding/json is
// its oracle. oracleCheck decodes a captured body into the typed shapes and
// requires the capture to be exactly what encoding/json writes for the
// shapes the server used to encode: {"context","results","term"} as a map,
// {"error"} as a map, and {"items":[{"status","body"}]} around them.

// answer is a relax body as a client decodes it.
type answer struct {
	Context string               `json:"context"`
	Results []server.RelaxResult `json:"results"`
	Term    string               `json:"term"`
}

// oracleItem is a batch item as the server encoded it through encoding/json.
type oracleItem struct {
	Status int `json:"status"`
	Body   any `json:"body"`
}

// oracleValue rebuilds the encoded value of one body from its typed decode:
// a relax answer for a 200, the error map otherwise.
func oracleValue(status int, body []byte) (any, error) {
	if status != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		err := json.Unmarshal(body, &e)
		return map[string]string{"error": e.Error}, err
	}
	var a answer
	err := json.Unmarshal(body, &a)
	return map[string]any{"term": a.Term, "context": a.Context, "results": a.Results}, err
}

// oracleCheck reports how body (a GET /relax 200, or with batch set a POST
// /relax/batch response) differs from its encoding/json encoding.
func oracleCheck(body []byte, batch bool) error {
	var v any
	if batch {
		var resp struct {
			Items []server.BatchItemResponse `json:"items"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		items := make([]oracleItem, len(resp.Items))
		for i, it := range resp.Items {
			b, err := oracleValue(it.Status, it.Body)
			if err != nil {
				return fmt.Errorf("item %d: %w", i, err)
			}
			items[i] = oracleItem{Status: it.Status, Body: b}
		}
		v = map[string]any{"items": items}
	} else {
		var err error
		if v, err = oracleValue(http.StatusOK, body); err != nil {
			return err
		}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		return err
	}
	if !bytes.Equal(body, want.Bytes()) {
		return fmt.Errorf("body differs from encoding/json:\n got: %q\nwant: %q", body, want.Bytes())
	}
	return nil
}
