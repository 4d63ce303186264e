package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"pbmg"
	"pbmg/serve"
)

// inprocOp solves through the family's Registry service, the library path
// an embedding server takes.
func inprocOp(cat *catalog, cells []cell) opFunc {
	return func(ctx context.Context, i int64, t *tracer, root int) sample {
		c := cells[i%int64(len(cells))]
		x := c.x
		x.CopyFrom(c.in.p.Boundary)
		s := sample{fam: c.in.fam, class: c.class, target: c.acc}
		sp := t.begin("pbmg.Service.SolveContext", root, i)
		s.sent = time.Now()
		err := cat.services[c.in.fam].SolveContext(ctx, x, c.in.p.B, c.acc)
		s.done = time.Now()
		t.end(sp)
		s.solve = s.done.Sub(s.sent)
		if err != nil {
			s.shed = errors.Is(err, pbmg.ErrShed)
			s.errored = !s.shed
			return s
		}
		g := t.begin("grade", root, i)
		s.achieved = grade(c.in.p, x)
		t.end(g)
		return s
	}
}

// newHTTPClient returns a client holding at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
}

// buildBodies pre-marshals every input's request per target, so encoding
// stays off the measured path.
func buildBodies(w *workload, ins []*input) error {
	for _, in := range ins {
		fs := w.families[in.fam]
		for _, a := range w.accs {
			b, err := json.Marshal(serve.SolveRequest{Family: fs.name(), N: fs.n, Accuracy: a, B: in.p.B.Data()})
			if err != nil {
				return err
			}
			in.body = append(in.body, b)
		}
	}
	return nil
}

// httpOp posts one JSON solve to the server and grades the decoded answer.
func httpOp(cl *http.Client, url string, cells []cell) opFunc {
	return func(ctx context.Context, i int64, t *tracer, root int) sample {
		c := cells[i%int64(len(cells))]
		body := c.in.body[c.accIdx]
		s := sample{fam: c.in.fam, class: c.class, target: c.acc, reqBytes: len(body)}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			s.errored = true
			s.sent = time.Now()
			s.done = s.sent
			return s
		}
		req.Header.Set("Content-Type", "application/json")
		sp := t.begin("http.roundtrip", root, i)
		if t != nil {
			req.Header.Set(hdrReq, strconv.FormatInt(i, 10))
			req.Header.Set(hdrParent, strconv.Itoa(sp))
		}
		s.sent = time.Now()
		resp, err := cl.Do(req)
		var raw []byte
		if err == nil {
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		read := time.Now()
		t.end(sp)
		s.rtt = read.Sub(s.sent)
		s.respBytes = len(raw)
		s.done = read
		if err != nil {
			s.errored = true
			return s
		}
		if resp.StatusCode != http.StatusOK {
			s.shed = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
			s.errored = !s.shed
			return s
		}
		d := t.begin("client.decode", root, i)
		var out serve.SolveResponse
		err = json.Unmarshal(raw, &out)
		s.done = time.Now()
		t.end(d)
		s.decode = s.done.Sub(read)
		if err != nil {
			s.errored = true
			return s
		}
		s.solve = time.Duration(out.SolveNs)
		g := t.begin("grade", root, i)
		if len(out.X) == len(c.x.Data()) {
			copy(c.x.Data(), out.X)
			s.achieved = grade(c.in.p, c.x)
		}
		t.end(g)
		return s
	}
}
