package fabrics_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/fabrics"
	"repro/internal/hostif"
	"repro/internal/oxblock"
	"repro/internal/oxeleos"
	"repro/internal/vclock"
	"repro/internal/zns"
)

// adminRig is one served host with a single namespace, and the admin
// reads over both transports: the in-process admin queue and a
// loopback fabric admin connection to the same host.
type adminRig struct {
	local, remote *hostif.AdminReader
	nsid          int
	table         uint64 // a committed table (LightLSM only)
	now           vclock.Time
}

func newAdminRig(t *testing.T, host *hostif.Host, nsid int, table uint64, now vclock.Time) adminRig {
	t.Helper()
	srv := fabrics.NewServer(host)
	t.Cleanup(srv.Close)
	admin, err := fabrics.Loopback(srv).Admin()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })
	return adminRig{local: host.Admin().AdminReader, remote: admin.AdminReader, nsid: nsid, table: table, now: now}
}

// attachRig attaches ns to a host on ctrl.
func attachRig(t *testing.T, host *hostif.Host, ns hostif.Namespace, now vclock.Time) adminRig {
	t.Helper()
	nsid, err := host.Admin().AttachNamespace(now, ns)
	if err != nil {
		t.Fatal(err)
	}
	return newAdminRig(t, host, nsid, 0, now)
}

// TestAdminReadsMatchAcrossTransports reads Identify, the namespace
// identity and every log page through the in-process admin and through
// a fabric admin, for one namespace of each kind: payloads must be
// equal, and a page one side refuses the other must refuse with the
// same status. Every read is itself an admin command the executor log
// counts, so the two transports read twin rigs, in the same order.
func TestAdminReadsMatchAcrossTransports(t *testing.T) {
	rigs := map[string]func(t *testing.T) adminRig{
		"oxblock": func(t *testing.T) adminRig {
			_, ctrl, err := exp.DefaultRig().Build()
			if err != nil {
				t.Fatal(err)
			}
			d, _, now, err := oxblock.New(ctrl, oxblock.Config{LogicalPages: 2048}, 0)
			if err != nil {
				t.Fatal(err)
			}
			return attachRig(t, hostif.NewHost(ctrl, hostif.HostConfig{}), hostif.NewBlockNamespace(d), now)
		},
		"oxeleos": func(t *testing.T) adminRig {
			_, ctrl, err := exp.DefaultRig().Build()
			if err != nil {
				t.Fatal(err)
			}
			s, err := oxeleos.New(ctrl, oxeleos.Config{BufferBytes: 1 << 20, StripeWidth: 1})
			if err != nil {
				t.Fatal(err)
			}
			return attachRig(t, hostif.NewHost(ctrl, hostif.HostConfig{}), hostif.NewEleosNamespace(s), 0)
		},
		"zns": func(t *testing.T) adminRig {
			_, ctrl, err := exp.DefaultRig().Build()
			if err != nil {
				t.Fatal(err)
			}
			tgt, err := zns.New(ctrl, zns.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return attachRig(t, hostif.NewHost(ctrl, hostif.HostConfig{}), hostif.NewZoneNamespace(tgt), 0)
		},
		"lightlsm": func(t *testing.T) adminRig {
			host, env, h, now := lsmRig(t)
			nsid, err := host.Admin().AttachNamespace(now, hostif.NewLSMNamespace(env))
			if err != nil {
				t.Fatal(err)
			}
			return newAdminRig(t, host, nsid, uint64(h.ID), now)
		},
	}
	for kind, build := range rigs {
		t.Run(kind, func(t *testing.T) {
			r, twin := build(t), build(t)
			reads := map[string]func(a *hostif.AdminReader) (any, error){
				"Identify": func(a *hostif.AdminReader) (any, error) { return a.Identify(r.now) },
				"IdentifyNamespace": func(a *hostif.AdminReader) (any, error) {
					return a.IdentifyNamespace(r.now, r.nsid)
				},
				"TableChunks": func(a *hostif.AdminReader) (any, error) {
					return a.TableChunks(r.now, r.nsid, r.table)
				},
			}
			for page := hostif.LogControllerStats; page <= hostif.LogOffload; page++ {
				reads[fmt.Sprintf("log page %d", page)] = func(a *hostif.AdminReader) (any, error) {
					return a.GetLogPage(r.now, page, r.nsid)
				}
			}
			served := 0
			for name, read := range reads {
				vL, errL := read(r.local)
				vF, errF := read(twin.remote)
				if (errL == nil) != (errF == nil) || hostif.StatusOf(errL) != hostif.StatusOf(errF) {
					t.Errorf("%s: in process %v, over the fabric %v", name, errL, errF)
					continue
				}
				if errL != nil {
					continue
				}
				served++
				if !reflect.DeepEqual(vL, vF) {
					t.Errorf("%s differs across transports:\nin process  %+v\nfabric      %+v", name, vL, vF)
				}
			}
			// Identify, the namespace identity and the six controller-
			// and device-scoped pages serve every kind.
			if served < 8 {
				t.Errorf("only %d of %d reads served", served, len(reads))
			}
		})
	}
}

// mislabeled is a fabric admin transport whose replies carry a payload
// of the wrong type, as a server that answered another page would.
type mislabeled struct{ *fabrics.AdminClient }

func (m mislabeled) RoundTrip(now vclock.Time, cmd hostif.Command) (hostif.Completion, error) {
	cmd.Admin.Log = hostif.LogChunkReport
	cmd.Op = hostif.OpAdminGetLogPage
	return m.AdminClient.RoundTrip(now, cmd)
}

// TestAdminReadOfWrongPayloadTypeFails: a round trip that delivers a
// payload of another type yields ErrBadAdminPayload, never a panic.
func TestAdminReadOfWrongPayloadTypeFails(t *testing.T) {
	_, addr, now := testRig(t, 1024)
	admin, err := fabrics.Dial(addr).Admin()
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	r := hostif.NewAdminReader(mislabeled{admin})
	if _, err := r.ChunkReport(now); err != nil {
		t.Fatalf("the page the transport really reads: %v", err)
	}
	if _, err := r.Identify(now); !errors.Is(err, hostif.ErrBadAdminPayload) {
		t.Fatalf("Identify answered with a chunk report: %v, want ErrBadAdminPayload", err)
	}
	if _, err := r.TableChunks(now, 1, 0); !errors.Is(err, hostif.ErrBadAdminPayload) {
		t.Fatalf("TableChunks answered with a chunk report: %v, want ErrBadAdminPayload", err)
	}
}
