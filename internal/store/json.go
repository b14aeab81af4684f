package store

import (
	"encoding/json"
	"fmt"
	"io"

	"stsmatch/internal/plr"
)

// The JSON form of the database is the interchange format of the cmd/
// tools: cmd/motiongen and cmd/segmenter emit it, cmd/predictd and
// cmd/clusterpat consume it.

type jsonVertex struct {
	T     float64   `json:"t"`
	Pos   []float64 `json:"pos"`
	State string    `json:"state"`
}

type jsonStream struct {
	SessionID string       `json:"sessionId"`
	Vertices  []jsonVertex `json:"vertices"`
}

type jsonPatient struct {
	Info    PatientInfo  `json:"info"`
	Streams []jsonStream `json:"streams"`
}

type jsonDB struct {
	Patients []jsonPatient `json:"patients"`
}

// WriteJSON serializes the database.
func (db *DB) WriteJSON(w io.Writer) error {
	var out jsonDB
	for _, p := range db.Patients() {
		jp := jsonPatient{Info: p.Info}
		for _, st := range p.Streams {
			js := jsonStream{SessionID: st.SessionID}
			for view, i := st.ScanView(""), 0; i < view.Len(); i++ {
				v := view.Vertex(i)
				js.Vertices = append(js.Vertices, jsonVertex{T: v.T, Pos: v.Pos, State: v.State.String()})
			}
			jp.Streams = append(jp.Streams, js)
		}
		out.Patients = append(out.Patients, jp)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadJSON deserializes a database written by WriteJSON.
func ReadJSON(r io.Reader) (*DB, error) {
	var in jsonDB
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("store: decoding database: %w", err)
	}
	db := NewDB()
	for _, jp := range in.Patients {
		p, err := db.AddPatient(jp.Info)
		if err != nil {
			return nil, err
		}
		for _, js := range jp.Streams {
			vs := make([]plr.Vertex, len(js.Vertices))
			for i, jv := range js.Vertices {
				state, err := plr.ParseState(jv.State)
				if err != nil {
					return nil, fmt.Errorf("store: stream %s: %w", js.SessionID, err)
				}
				vs[i] = plr.Vertex{T: jv.T, Pos: jv.Pos, State: state}
			}
			if err := p.AddStream(js.SessionID).Append(vs...); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}
