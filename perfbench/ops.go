package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/wire"
)

// opKind is the transport an operation goes over.
type opKind int

const (
	opExplain opKind = iota // POST /v1/explain
	opStream                // POST /v1/explain/stream (SSE)
	opBatch                 // POST /v1/explain/batch
	opMatch                 // POST /v1/match
	opMutate                // POST /v1/graph/mutate
)

var opPaths = [...]string{"/v1/explain", "/v1/explain/stream", "/v1/explain/batch", "/v1/match", "/v1/graph/mutate"}

// op is one request of a workload. Ops are read-only once built, so the
// cyclic workloads share them between clients.
type op struct {
	kind    opKind
	body    []byte
	dataset string
	// want holds the oracle payload of each answer (one per batch item);
	// nil entries are checked by check or, for sampled ops, after the run.
	want [][]byte
	// check validates a payload that has no precomputed oracle bytes.
	check func(payload []byte) error
	// sample marks an op whose payload is kept and compared with the
	// library oracle after the timed phase.
	sample bool
	// key is the canonical query key of a unique-cold op.
	key string
}

func (o *op) answers() int {
	if o.kind == opBatch {
		return len(o.want)
	}
	return 1
}

// sample is the outcome of one op.
type sample struct {
	op      *op
	id      string // X-Request-Id in a traced phase
	start   time.Time
	lat     time.Duration // to the response (explain/match/batch/mutate) or the done event (stream)
	end     time.Time     // response fully read (stream: end of body)
	ttfe    time.Duration // stream: first improvement event
	ok      int           // correct answers
	err     error
	payload []byte // kept for sampled ops
	mut     *wire.MutateResponse
}

// client is one closed-loop client on its own connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do runs one op and checks its answers.
func (c *client) do(o *op, id string) sample {
	s := sample{op: o, id: id}
	req, err := http.NewRequest(http.MethodPost, c.base+opPaths[o.kind], bytes.NewReader(o.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	s.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	if o.kind == opStream && resp.StatusCode == http.StatusOK {
		s.err = readStream(&s, resp.Body)
		s.end = time.Now()
		return s
	}
	blob, err := io.ReadAll(resp.Body)
	s.end = time.Now()
	s.lat = s.end.Sub(s.start)
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("%s: %s: %s", opPaths[o.kind], resp.Status, bytes.TrimSpace(blob))
		return s
	}
	var env wire.Envelope
	if err := json.Unmarshal(blob, &env); err != nil || env.Error != nil || len(env.Data) == 0 {
		s.err = fmt.Errorf("%s: malformed envelope: %.200s", opPaths[o.kind], blob)
		return s
	}
	switch o.kind {
	case opBatch:
		var br wire.BatchExplainResponse
		if err := json.Unmarshal(env.Data, &br); err != nil || len(br.Items) != len(o.want) {
			s.err = fmt.Errorf("batch: malformed items: %.200s", env.Data)
			return s
		}
		for i, item := range br.Items {
			if item.Error != nil {
				s.err = fmt.Errorf("batch item %d: %s: %s", i, item.Error.Code, item.Error.Message)
				continue
			}
			if err := o.verify(i, item.Data); err != nil {
				s.err = err
				continue
			}
			s.ok++
		}
	case opMutate:
		var mr wire.MutateResponse
		if err := json.Unmarshal(env.Data, &mr); err != nil {
			s.err = err
			return s
		}
		if mr.Epoch < 2 || len(mr.AddedVertices) != 2 || len(mr.AddedEdges) != 1 {
			s.err = fmt.Errorf("mutate: unexpected answer %s", env.Data)
			return s
		}
		s.mut = &mr
		s.ok = 1
	default:
		s.err = s.accept(env.Data)
	}
	return s
}

// accept checks a single answer's payload and keeps it when sampled.
func (s *sample) accept(payload []byte) error {
	if s.op.sample {
		s.payload = append([]byte(nil), payload...)
	}
	if err := s.op.verify(0, payload); err != nil {
		return err
	}
	s.ok = 1
	return nil
}

// verify compares an answer with the oracle bytes or runs the op's check,
// and rejects degraded or partial answers either way.
func (o *op) verify(i int, payload []byte) error {
	if o.want != nil && o.want[i] != nil {
		if !bytes.Equal(payload, o.want[i]) {
			return fmt.Errorf("%s: payload differs from the library oracle: %.300s", opPaths[o.kind], o.body)
		}
		return nil
	}
	var flags struct {
		Degraded bool `json:"degraded"`
		Partial  bool `json:"partial"`
	}
	if err := json.Unmarshal(payload, &flags); err != nil {
		return fmt.Errorf("%s: malformed payload: %w", opPaths[o.kind], err)
	}
	if flags.Degraded || flags.Partial {
		return fmt.Errorf("%s: degraded or partial answer", opPaths[o.kind])
	}
	if o.check != nil {
		return o.check(payload)
	}
	return nil
}

// readStream consumes an SSE explain: it stamps the first improvement event
// and the done event, and checks the done payload.
func readStream(s *sample, body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	event := ""
	var result error = errors.New("stream: ended without a done event")
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			switch event {
			case "improvement":
				if s.ttfe == 0 {
					s.ttfe = time.Since(s.start)
				}
			case "done":
				s.lat = time.Since(s.start)
				result = s.accept(data)
			case "error":
				result = fmt.Errorf("stream: error event: %s", strings.TrimSpace(string(data)))
			default:
				result = fmt.Errorf("stream: unexpected event %q", event)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return result
}

// getStats fetches GET /v1/stats.
func (c *client) getStats() (*wire.StatsResponse, error) {
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	var env wire.Envelope
	if err := json.Unmarshal(blob, &env); err != nil || len(env.Data) == 0 {
		return nil, fmt.Errorf("/v1/stats: malformed envelope")
	}
	var st wire.StatsResponse
	if err := json.Unmarshal(env.Data, &st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return &st, nil
}
