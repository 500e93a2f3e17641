package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"hetmodel/internal/core"
	"hetmodel/internal/parallel"
)

// conn is one keep-alive HTTP/1.1 connection of a closed-loop client. It
// writes prebuilt request bytes and reads the response with the standard
// library's parser, so the client's own cost per request stays small beside
// the server's.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and returns the status and the body; the body is
// valid until the next call. After an error the connection is re-dialled on
// the next call.
func (c *conn) do(req []byte) (int, []byte, error) {
	if c.c == nil {
		fresh, err := dial(c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = fresh.c, fresh.br
	}
	c.c.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a failed deadline shows as an I/O error below
	if _, err := c.c.Write(req); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := resp.Body.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			c.close()
			return 0, nil, err
		}
	}
	resp.Body.Close()
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body, nil
}

// post renders a JSON POST of v as request bytes.
func post(path string, headers map[string]string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return request(path, headers, body), nil
}

// request renders a POST of an encoded JSON body as request bytes.
func request(path string, headers map[string]string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", path, len(body))
	for _, k := range sortedKeys(headers) {
		fmt.Fprintf(&b, "%s: %s\r\n", k, headers[k])
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

func get(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// getJSON fetches path from addr over a fresh connection.
func getJSON(addr, path string, out any) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, body, err := c.do(get(path))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, out)
}

// answer is the part of a response the oracle checks: the model version and
// the ranked (tau, index) list.
type answer struct {
	version int64
	ranked  []parallel.Candidate
}

// scanAnswer reads the version and every (tau, index) pair out of a query
// response without building the whole document: the client shares its cores
// with the server, so a full decode per response would be measured as
// server slowness. It tolerates any JSON whitespace; ok is false when the
// body does not have the expected shape.
func scanAnswer(body []byte, into *answer) bool {
	into.ranked = into.ranked[:0]
	v, rest, ok := numberAfter(body, `"version"`)
	if !ok {
		return false
	}
	into.version = int64(v)
	body = rest
	for {
		tau, rest, ok := numberAfter(body, `"tau"`)
		if !ok {
			break
		}
		idx, rest2, ok := numberAfter(rest, `"index"`)
		if !ok {
			return false
		}
		into.ranked = append(into.ranked, parallel.Candidate{Index: int64(idx), Score: tau})
		body = rest2
	}
	return len(into.ranked) > 0
}

// numberAfter finds key, skips the colon, and parses the number there.
func numberAfter(b []byte, key string) (float64, []byte, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, b, false
	}
	b = b[i+len(key):]
	j := 0
	for j < len(b) && (b[j] == ' ' || b[j] == ':' || b[j] == '\t' || b[j] == '\n' || b[j] == '\r') {
		j++
	}
	k := j
	for k < len(b) && b[k] != ',' && b[k] != '}' && b[k] != ' ' && b[k] != '\n' && b[k] != '\r' && b[k] != '\t' {
		k++
	}
	v, err := strconv.ParseFloat(string(b[j:k]), 64)
	if err != nil {
		return 0, b, false
	}
	return v, b[k:], true
}

// hashRanked folds a ranked list into the value the oracle compares: FNV-1a
// over the bits of every tau and its grid index, in rank order.
func hashRanked(ranked []parallel.Candidate) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for _, c := range ranked {
		mix(math.Float64bits(c.Score))
		mix(uint64(c.Index))
	}
	return h
}

// hashResult is hashRanked over an in-process search result.
func hashResult(res *core.SearchResult, scratch []parallel.Candidate) (uint64, []parallel.Candidate) {
	scratch = scratch[:0]
	for i, e := range res.Best {
		scratch = append(scratch, parallel.Candidate{Index: res.BestIndex[i], Score: e.Tau})
	}
	return hashRanked(scratch), scratch
}
