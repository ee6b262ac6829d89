package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// newClient returns a client that holds at most conns connections to the
// loopback server, never consults a proxy and never follows redirects (a
// refused bid answers 303, which must count as a failure).
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		Timeout:       60 * time.Second,
	}
}

// pollPaths are the dashboard reads a browser tab repeats.
var pollPaths = []string{"/api/orders.json", "/api/prices.json", "/metrics"}

// request is one generated HTTP request: a bid form post, or a GET.
type request struct {
	path string
	form string // url-encoded bid form; empty for a GET
}

func bidRequest(o orderSpec) request {
	form := "team=" + o.team + "&product=" + o.product +
		"&qty=" + strconv.FormatFloat(o.qty, 'g', -1, 64) +
		"&clusters=" + strings.Join(o.clusters, ",") +
		"&limit=" + strconv.FormatFloat(o.limit, 'g', -1, 64)
	return request{path: "/bid/submit", form: form}
}

var orderID = regexp.MustCompile(`Order #(\d+) `)

// exchange is one request's client-side result.
type exchange struct {
	start time.Time
	rtt   time.Duration
	order int // the acknowledged order id, or -1
}

// send performs req against base. A submit must answer 200 with the
// order number; a GET must answer 200.
func send(c *http.Client, base string, req request, idx int, traced bool) (exchange, error) {
	ex := exchange{order: -1}
	var hr *http.Request
	var err error
	if req.form != "" {
		hr, err = http.NewRequest(http.MethodPost, base+req.path, strings.NewReader(req.form))
		if err == nil {
			hr.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
	} else {
		hr, err = http.NewRequest(http.MethodGet, base+req.path, nil)
	}
	if err != nil {
		return ex, err
	}
	if traced {
		hr.Header.Set(reqHeader, strconv.Itoa(idx))
	}
	ex.start = time.Now()
	resp, err := c.Do(hr)
	if err != nil {
		return ex, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.rtt = time.Since(ex.start)
	if err != nil {
		return ex, err
	}
	if resp.StatusCode != http.StatusOK {
		return ex, fmt.Errorf("%s %s: status %d", hr.Method, req.path, resp.StatusCode)
	}
	if req.form != "" {
		m := orderID.FindSubmatch(body)
		if m == nil {
			return ex, fmt.Errorf("submit answered without an order number")
		}
		ex.order, _ = strconv.Atoi(string(m[1]))
	}
	return ex, nil
}
