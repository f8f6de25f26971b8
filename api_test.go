package tcpls

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// exportedAPI is the root package's exported surface: every exported
// top-level name, plus every exported method on an exported type. An API
// change shows up here as a diff of this list.
var exportedAPI = []string{
	"AdmissionControl", "Certificate", "Client", "ClientTicket", "Config",
	"ConnInfo", "ConnSnapshot", "Cookie", "DebugHandler", "Dial",
	"DialParallel", "ErrNoCookies", "ErrNotTCPLS", "ErrRecvBufferFull",
	"ErrSessionClosed", "ErrSessionDead", "EventConnDown", "EventFailover",
	"EventReconnected", "EventReconnecting", "EventRecoveryFailed",
	"HealthConfig", "Listen", "Listener", "Listener.Accept", "Listener.Addr",
	"Listener.Close", "Listener.ValidateJoin", "NewCertificate",
	"NewListener", "NewTicketKeyStore", "OpenTicketKeyStore",
	"OptUserTimeout", "ReconnectConfig", "ServeTelemetry", "SessID",
	"Session", "Session.AcceptStream", "Session.Close", "Session.ConnInfo",
	"Session.Connections", "Session.Cookies", "Session.Couple",
	"Session.Done", "Session.DumpFlight", "Session.EarlyDataAccepted",
	"Session.EarlyStream", "Session.Err", "Session.Events",
	"Session.Failover", "Session.ID", "Session.IssueCookies",
	"Session.JoinConn", "Session.JoinPath", "Session.JoinPathFast",
	"Session.MemoryFootprint", "Session.OpenStream", "Session.OpenStreamOn",
	"Session.Ping", "Session.ReadCoupled", "Session.ReceiveBPFCC",
	"Session.Resumed", "Session.ResumptionTicket", "Session.SendBPFCC",
	"Session.SendTCPOption", "Session.Snapshot", "Session.Stats",
	"Session.TCPOptions", "Session.TraceJSON", "Session.WaitEvent",
	"Session.WriteCoupled", "SessionDeadError", "SessionEvent",
	"SessionEventKind", "Snapshot", "Stats", "Stream", "Stream.Close",
	"Stream.Conn", "Stream.ID", "Stream.Read", "Stream.Write",
	"StreamSnapshot", "TCPOption", "TelemetryConfig", "TicketKeyStore",
	"TicketKeyStore.Generation", "TicketKeyStore.Rotate",
}

// TestExportedAPI counts the root package's exported names with go/ast
// over the non-test files and compares them with exportedAPI.
func TestExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["tcpls"]
	if !ok {
		t.Fatalf("package tcpls not found among %d packages", len(pkgs))
	}
	var got []string
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					got = append(got, d.Name.Name)
					continue
				}
				typ := d.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
					got = append(got, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							got = append(got, spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.IsSorted(exportedAPI) {
		t.Fatal("exportedAPI is not sorted")
	}
	if slices.Equal(got, exportedAPI) {
		return
	}
	for _, n := range got {
		if _, found := slices.BinarySearch(exportedAPI, n); !found {
			t.Errorf("exported but not listed: %s", n)
		}
	}
	for _, n := range exportedAPI {
		if _, found := slices.BinarySearch(got, n); !found {
			t.Errorf("listed but not exported: %s", n)
		}
	}
	t.Fatalf("exported API has %d names, the list has %d", len(got), len(exportedAPI))
}
