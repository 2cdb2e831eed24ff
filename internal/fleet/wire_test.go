package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzGranuleWire feeds arbitrary bytes through what a worker and a
// coordinator decode off the wire: the POST /run body, as the worker's
// handler decodes it, its args as a granule reference, and the same
// bytes as a /run answer whose result is a granule result. None of it
// may panic. It runs no kernel and touches no filesystem.
func FuzzGranuleWire(f *testing.F) {
	args, err := GranuleArgs{
		Satellite: "Terra", Year: 2022, DOY: 1, Index: 7,
		DataDir: "data", OutboxDir: "outbox", TilePixels: 8, MinCloudFrac: 0.3,
		Model: "ricc.hdf", Codebook: "aicca-codebook.hdf", Precision: "int8",
		ArchiveURL: "http://archive", ArchiveToken: "token",
	}.Args()
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []any{
		runRequest{Function: GranuleFunction, Args: args},
		runResponse{Result: GranuleResult{Tiles: 3, File: "outbox/g.nc", Labeled: 3, Started: time.Unix(0, 0).UTC(), Fetch: time.Millisecond}},
	} {
		seed, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"function":"eoml.granule","args":{"satellite":"Aqua","year":-1,"doy":1e9,"data_dir":7}}`))
	f.Add([]byte(`{"result":{"tiles":"x","fetch_ns":1e400},"error":null}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req runRequest
		if decodePost(httptest.NewRecorder(), httptest.NewRequest("POST", "/run", bytes.NewReader(body)), &req) {
			_, _, _ = parseGranuleRef(req.Args)
		}
		var resp runResponse
		if json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxBody)).Decode(&resp) == nil {
			_, _ = ParseGranuleResult(resp.Result)
		}
	})
}
