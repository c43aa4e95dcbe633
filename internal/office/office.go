// Package office implements the third application domain the paper names
// ("office automation", §1.2): each division of an organization runs a
// division guardian that guards its documents. Documents are abstract
// values (title + revision + body) transmitted between divisions via their
// external rep; access to a stored document is granted through a sealed
// token (§2.1) — an external name only the issuing guardian can interpret,
// with no guarantee that the named object continues to exist.
package office

import (
	"encoding/binary"
	"fmt"

	"repro/internal/guardian"
	"repro/internal/xrep"
)

// DivisionDefName is the library name of the division guardian definition.
const DivisionDefName = "office_division"

// Outcome identifiers.
const (
	OutcomeBadToken = "bad_token"
	OutcomeNoDoc    = "no_document"
)

// Document is the transmittable document abstraction: the external rep is
// (title, revision, body), fixed system-wide; divisions may keep richer
// internal representations.
type Document struct {
	Title    string
	Revision int64
	Body     string
}

// DocTypeName is the system-wide name of the document type.
const DocTypeName = "office_document"

// XTypeName implements xrep.Transmittable.
func (d Document) XTypeName() string { return DocTypeName }

// EncodeX implements xrep.Transmittable.
func (d Document) EncodeX() (xrep.Value, error) {
	return xrep.Seq{xrep.Str(d.Title), xrep.Int(d.Revision), xrep.Str(d.Body)}, nil
}

// DecodeDocument is the decode operation for the document type.
func DecodeDocument(v xrep.Value) (any, error) {
	f := xrep.ReadRec(v, DocTypeName, 3)
	d := Document{Title: f.Str(), Revision: f.Int(), Body: f.Str()}
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("office: cannot decode document: %w", err)
	}
	return d, nil
}

// DivisionPortType describes a division guardian's port.
var DivisionPortType = guardian.NewPortType("office_division_port").
	Msg("create_doc", xrep.KindString, xrep.KindString).
	Replies("create_doc", "doc_token").
	Msg("read_doc", xrep.KindToken).
	Replies("read_doc", "doc", OutcomeBadToken, OutcomeNoDoc).
	Msg("edit_doc", xrep.KindToken, xrep.KindString).
	Replies("edit_doc", "edited", OutcomeBadToken, OutcomeNoDoc).
	Msg("archive_doc", xrep.KindToken).
	Replies("archive_doc", "archived", OutcomeBadToken, OutcomeNoDoc).
	Msg("send_doc", xrep.KindToken, xrep.KindPortName).
	Replies("send_doc", "forwarded", OutcomeBadToken, OutcomeNoDoc).
	Msg("receive_doc", xrep.KindRec).
	Replies("receive_doc", "doc_token").
	Msg("count_docs").
	Replies("count_docs", "doc_count")

// ClientReplyType receives every division reply.
var ClientReplyType = guardian.NewPortType("office_client_port").
	Msg("doc_token", xrep.KindToken).
	Msg("doc", xrep.KindRec).
	Msg("edited", xrep.KindInt).
	Msg("archived").
	Msg("forwarded").
	Msg(OutcomeBadToken).
	Msg(OutcomeNoDoc).
	Msg("doc_count", xrep.KindInt)

// divisionState is the guardian's objects: stored documents keyed by a
// private id. The ids never leave the guardian except sealed in tokens —
// "an index into a private table of the guardian. Such information should
// not be transmitted in a message" unsealed (§3.3, reason 3).
type divisionState struct {
	nextID uint64
	docs   map[uint64]*Document
}

// DivisionDef returns the division guardian definition. Documents are
// volatile in this application (divisions re-author after a crash), so
// there is no Recover; the interesting durability story lives in the
// airline and bank applications.
func DivisionDef() *guardian.GuardianDef {
	return &guardian.GuardianDef{
		TypeName: DivisionDefName,
		Provides: []*guardian.PortType{DivisionPortType},
		Init:     divisionMain,
	}
}

func divisionMain(ctx *guardian.Ctx) {
	st := &divisionState{docs: make(map[uint64]*Document)}
	ctx.G.SetState(st)
	g := ctx.G
	// Register the document decode operation at this node.
	g.Node().Registry().Register(DocTypeName, DecodeDocument)

	tokenFor := func(id uint64) xrep.Token {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], id)
		return g.Seal(buf[:])
	}
	// docFromToken unseals and looks up; distinguishes forged tokens from
	// tokens whose document no longer exists.
	docFromToken := func(tok xrep.Token) (uint64, *Document, string) {
		body, err := g.Unseal(tok)
		if err != nil || len(body) != 8 {
			return 0, nil, OutcomeBadToken
		}
		id := binary.BigEndian.Uint64(body)
		doc, ok := st.docs[id]
		if !ok {
			return id, nil, OutcomeNoDoc
		}
		return id, doc, ""
	}
	reply := func(pr *guardian.Process, m *guardian.Message, cmd string, args ...any) {
		if !m.ReplyTo.IsZero() {
			_ = pr.Send(m.ReplyTo, cmd, args...)
		}
	}
	store := func(doc *Document) xrep.Token {
		st.nextID++
		st.docs[st.nextID] = doc
		return tokenFor(st.nextID)
	}

	// No failure arm: a lost reply costs the client one re-ask.
	guardian.NewReceiver(ctx.Ports[0]).
		When("create_doc", func(pr *guardian.Process, m *guardian.Message) {
			tok := store(&Document{Title: m.Str(0), Revision: 1, Body: m.Str(1)})
			reply(pr, m, "doc_token", tok)
		}).
		When("read_doc", func(pr *guardian.Process, m *guardian.Message) {
			_, doc, fail := docFromToken(m.Token(0))
			if fail != "" {
				reply(pr, m, fail)
				return
			}
			reply(pr, m, "doc", *doc)
		}).
		When("edit_doc", func(pr *guardian.Process, m *guardian.Message) {
			_, doc, fail := docFromToken(m.Token(0))
			if fail != "" {
				reply(pr, m, fail)
				return
			}
			doc.Body = m.Str(1)
			doc.Revision++
			reply(pr, m, "edited", doc.Revision)
		}).
		When("archive_doc", func(pr *guardian.Process, m *guardian.Message) {
			id, _, fail := docFromToken(m.Token(0))
			if fail != "" {
				reply(pr, m, fail)
				return
			}
			delete(st.docs, id)
			reply(pr, m, "archived")
		}).
		When("send_doc", func(pr *guardian.Process, m *guardian.Message) {
			// Inter-division service: the document's *value* crosses in
			// its external rep; the receiving division stores its own
			// copy and answers the original requester with its own token
			// (different-guardian response pattern).
			_, doc, fail := docFromToken(m.Token(0))
			if fail != "" {
				reply(pr, m, fail)
				return
			}
			_ = pr.SendReplyTo(m.Port(1), m.ReplyTo, "receive_doc", *doc)
			reply(pr, m, "forwarded")
		}).
		When("receive_doc", func(pr *guardian.Process, m *guardian.Message) {
			decoded, err := m.Decode(0)
			if err != nil {
				return // undecodable foreign value: drop
			}
			doc, ok := decoded.(Document)
			if !ok {
				return
			}
			tok := store(&doc)
			reply(pr, m, "doc_token", tok)
		}).
		When("count_docs", func(pr *guardian.Process, m *guardian.Message) {
			reply(pr, m, "doc_count", int64(len(st.docs)))
		}).
		Loop(ctx.Proc, nil)
}
