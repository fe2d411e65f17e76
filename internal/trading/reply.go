package trading

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"autoadapt/internal/wire"
)

// A query reply is one value: a list of rows, one per offer, in preference
// order. A row is the record
//
//	{dynamics = {<name> = {aspect = <string>, ref = <objref>}, ...},
//	 id = <string>, properties = {<name> = <value>, ...},
//	 ref = <objref>, type = <string>}
//
// properties is the snapshot the query evaluated: every static property
// with a non-nil value and every referenced dynamic property that resolved.
// dynamics names the source of each dynamic property, so clients (smart
// proxies) can attach observers to the monitors the trader consults: its
// monitor under ref and, when there is one, its aspect. A row without
// dynamic properties has no dynamics field.
//
// replyRow writes the format and readResults reads it, with no wire.Table
// built on either side. Keys go in the order the generic table encoder
// sorts them and each record's pair count before its pairs, so the bytes
// are wire.AppendValue's of the same rows built as tables.

// rowProp is one property of a row being written: its snapshot value (nil:
// none) and, for a dynamic property, its source (zero: static).
type rowProp struct {
	name   string
	snap   *wire.Value
	src    wire.ObjRef
	aspect string
}

// replyRow is a row's properties, the row's one definition as a writer.
type replyRow []rowProp

// appendTo sorts the properties by name and appends offer o's row.
func (r replyRow) appendTo(dst []byte, o *Offer) ([]byte, error) {
	slices.SortFunc(r, func(a, b rowProp) int { return strings.Compare(a.name, b.name) })
	nsnap, ndyn := 0, 0
	for _, p := range r {
		if p.snap != nil && !p.snap.IsNil() {
			nsnap++
		}
		if !p.src.IsZero() {
			ndyn++
		}
	}
	fields := 4
	if ndyn > 0 {
		fields = 5
	}
	dst = appendRecord(dst, fields)
	if ndyn > 0 {
		dst = appendRecord(wire.AppendString(dst, "dynamics"), ndyn)
		for _, p := range r {
			if p.src.IsZero() {
				continue
			}
			dst = wire.AppendString(dst, p.name)
			if p.aspect != "" {
				dst = appendRecord(dst, 2)
				dst = wire.AppendString(wire.AppendString(dst, "aspect"), p.aspect)
			} else {
				dst = appendRecord(dst, 1)
			}
			dst = appendRef(wire.AppendString(dst, "ref"), p.src)
		}
	}
	dst = wire.AppendString(wire.AppendString(dst, "id"), o.ID)
	dst = appendRecord(wire.AppendString(dst, "properties"), nsnap)
	for _, p := range r {
		if p.snap == nil || p.snap.IsNil() {
			continue
		}
		var err error
		// The list, the row and properties are the three tables around it.
		if dst, err = wire.AppendValueAt(wire.AppendString(dst, p.name), *p.snap, 3); err != nil {
			return dst, err
		}
	}
	dst = appendRef(wire.AppendString(dst, "ref"), o.Ref)
	return wire.AppendString(wire.AppendString(dst, "type"), o.ServiceType), nil
}

func appendRecord(dst []byte, n int) []byte {
	return wire.AppendCount(wire.AppendTableHeader(dst, 0), n)
}

func appendRef(dst []byte, r wire.ObjRef) []byte {
	dst, _ = wire.AppendValue(dst, wire.Ref(r)) // a reference always encodes
	return dst
}

// queryWire is Query written as the servant's reply, appended to dst: rows
// go from the offers' slots straight into the bytes, with no Props or
// Snapshot map in between. The bytes are resultsToWire's over Query's rows.
func (t *Trader) queryWire(ctx context.Context, serviceType, constraint, preference string, maxResults int, dst []byte) ([]byte, error) {
	var werr error
	err := t.query(ctx, serviceType, constraint, preference, maxResults, func(sc *queryScratch) {
		dst = wire.AppendTableHeader(dst, len(sc.matched))
		for _, i := range sc.matched {
			c := &sc.candidates[i]
			row := sc.row[:0]
			for k := range c.props.slots {
				s := c.props.slot(k)
				p := rowProp{name: sc.slotNames[s], snap: sc.snapValue(c, s, k)}
				if c.props.dynamic(k) {
					p.src, p.aspect = c.props.source(k)
				}
				row = append(row, p)
			}
			sc.row = row
			if dst, werr = row.appendTo(dst, &c.rec.offer); werr != nil {
				return
			}
		}
		dst = wire.AppendCount(dst, 0)
	})
	if err == nil {
		err = werr
	}
	return dst, err
}

// resultsToWire appends the reply for results, each row from its Snapshot
// and its offer's dynamic properties.
func resultsToWire(dst []byte, results []QueryResult) ([]byte, error) {
	dst = wire.AppendTableHeader(dst, len(results))
	var row replyRow
	for i := range results {
		r := &results[i]
		row = row[:0]
		for name, v := range r.Snapshot {
			row = append(row, rowProp{name: name, snap: &v})
		}
		for name, pv := range r.Offer.Props {
			if !pv.IsDynamic() {
				continue
			}
			if j := slices.IndexFunc(row, func(p rowProp) bool { return p.name == name }); j >= 0 {
				row[j].src, row[j].aspect = pv.Dynamic, pv.Aspect
			} else {
				row = append(row, rowProp{name: name, src: pv.Dynamic, aspect: pv.Aspect})
			}
		}
		var err error
		if dst, err = row.appendTo(dst, &r.Offer); err != nil {
			return dst, err
		}
	}
	return wire.AppendCount(dst, 0), nil
}

// rowsReader reads the results of a query call into rows (Lookup.Query's
// orb.ResultReader): the reply is the first of n, and any others are read
// and ignored. It accepts and rejects what decoding the reply as a
// wire.Value and then reading that table would, with the same error text:
// a decode error first, else the shape's.
type rowsReader struct{ rows []QueryResult }

var rowsReaders = sync.Pool{New: func() any { return new(rowsReader) }}

func (r *rowsReader) ReadResults(d *wire.Decoder, n int) error {
	if n == 0 {
		return fmt.Errorf("trading: query reply is %s, want table", wire.Nil().Kind())
	}
	rows, shapeErr, err := readReply(d)
	for ; err == nil && n > 1; n-- {
		_, err = d.ValueAt(0)
	}
	if err == nil {
		err = shapeErr
	}
	if err == nil {
		r.rows = rows
	}
	return err
}

// readReply reads one query reply, returning a decode error in err and a
// reply of the wrong shape in shapeErr.
func readReply(d *wire.Decoder) (rows []QueryResult, shapeErr, err error) {
	narr, ok, err := d.TableHeader(0)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		v, err := d.ValueAt(0)
		if err != nil {
			return nil, nil, err
		}
		return nil, fmt.Errorf("trading: query reply is %s, want table", v.Kind()), nil
	}
	// A written row takes 40 bytes or more: a hostile count reserves no
	// more than about twice the input.
	l := replyList{rows: make([]QueryResult, 0, min(narr, d.Remaining()/32))}
	for i := 0; i < narr; i++ {
		row, st, err := readRow(d)
		if err != nil {
			return nil, nil, err
		}
		l.push(row, st)
	}
	npairs, err := d.Count()
	for i := 0; err == nil && i < npairs; i++ {
		var k wire.Value
		if k, err = d.ValueAt(1); err != nil {
			break
		}
		row, st, rerr := readRow(d)
		if err = rerr; err == nil {
			err = wire.KeyError(k)
		}
		if err == nil {
			l.set(k, row, st)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return l.result()
}

// rowState is what a list entry holds, for the reply's shape error.
type rowState uint8

const (
	rowOK       rowState = iota
	rowNoRef             // a table without an object reference under ref
	rowNotTable          // any other value
	rowNil               // nil: not a table either, and trimmed off the list's end
)

// replyList is the reply's list as the decoded table would hold it: rows
// in its array part, and the number-keyed pairs of its hash part, which a
// row appended later pulls into the array (see wire.Table.Set). A real
// reply is a plain list; the rest only makes hostile input read the same.
type replyList struct {
	rows   []QueryResult
	states []rowState // nil while every row is rowOK
	spare  map[float64]listEntry
}

type listEntry struct {
	row QueryResult
	st  rowState
}

func (l *replyList) state(i int) rowState {
	if l.states == nil {
		return rowOK
	}
	return l.states[i]
}

func (l *replyList) setState(i int, st rowState) {
	if st != rowOK && l.states == nil {
		l.states = make([]rowState, len(l.rows))
	}
	if l.states != nil {
		l.states[i] = st
	}
}

func (l *replyList) push(row QueryResult, st rowState) {
	l.rows = append(l.rows, row)
	if l.states != nil {
		l.states = append(l.states, rowOK)
	}
	l.setState(len(l.rows)-1, st)
}

// set stores the pair k, row as wire.Table.Set stores a pair.
func (l *replyList) set(k wire.Value, row QueryResult, st rowState) {
	n, isNum := k.AsNumber()
	if !isNum {
		return // a key no row is ever read under
	}
	if n == math.Trunc(n) {
		i := int(n)
		if i >= 1 && i <= len(l.rows) {
			l.rows[i-1] = row
			l.setState(i-1, st)
			if st == rowNil && i == len(l.rows) {
				for len(l.rows) > 0 && l.state(len(l.rows)-1) == rowNil {
					l.rows = l.rows[:len(l.rows)-1]
					l.states = l.states[:len(l.rows)]
				}
			}
			return
		}
		if i == len(l.rows)+1 && st != rowNil {
			l.push(row, st)
			for {
				e, ok := l.spare[float64(len(l.rows)+1)]
				if !ok {
					return
				}
				delete(l.spare, float64(len(l.rows)+1))
				l.push(e.row, e.st)
			}
		}
	}
	if st == rowNil {
		delete(l.spare, n)
		return
	}
	if l.spare == nil {
		l.spare = map[float64]listEntry{}
	}
	l.spare[n] = listEntry{row, st}
}

func (l *replyList) result() ([]QueryResult, error, error) {
	for i := range l.rows {
		switch l.state(i) {
		case rowNotTable, rowNil:
			return nil, fmt.Errorf("trading: query reply entry %d is not a table", i+1), nil
		case rowNoRef:
			return nil, fmt.Errorf("trading: query reply entry %d has no ref", i+1), nil
		}
	}
	return l.rows, nil, nil
}

// Depths of a reply's parts: the list, a row, a row's fields, and the
// values inside properties and dynamics.
const (
	depthRow = 1 + iota
	depthField
	depthProp
	depthSource
)

// readRecord reads a table nested depth tables deep, skipping its array
// part, and hands each pair's key to pair, which reads the value; the key
// is then checked as decoding checks it. A value that is not a table is
// read into v, with ok false. Of a record's pairs the last under each key
// counts, and a nil value removes the key: readers keep that in mind.
func readRecord(d *wire.Decoder, depth int, pair func(k wire.Value) error) (v wire.Value, ok bool, err error) {
	narr, ok, err := d.TableHeader(depth)
	if err != nil || !ok {
		if err == nil {
			v, err = d.ValueAt(depth)
		}
		return v, false, err
	}
	for i := 0; i < narr && err == nil; i++ {
		_, err = d.ValueAt(depth + 1)
	}
	npairs := 0
	if err == nil {
		npairs, err = d.Count()
	}
	for i := 0; i < npairs && err == nil; i++ {
		var k wire.Value
		if k, err = d.ValueAt(depth + 1); err == nil {
			if err = pair(k); err == nil {
				err = wire.KeyError(k)
			}
		}
	}
	return v, err == nil, err
}

// readRow reads one list entry.
func readRow(d *wire.Decoder) (qr QueryResult, st rowState, err error) {
	st = rowNoRef
	v, ok, err := readRecord(d, depthRow, func(k wire.Value) error {
		name, isName := k.AsString()
		switch {
		case isName && name == "properties":
			qr.Snapshot = nil
			_, _, err := readRecord(d, depthField, func(k wire.Value) error {
				v, err := d.ValueAt(depthProp)
				if name, isName := k.AsString(); isName && err == nil {
					qr.Snapshot = setOrDelete(qr.Snapshot, name, v, !v.IsNil())
				}
				return err
			})
			return err
		case isName && name == "dynamics":
			qr.Offer.Props = nil
			_, ok, err := readRecord(d, depthField, func(k wire.Value) error {
				pv, ok, err := readSource(d)
				if name, isName := k.AsString(); isName {
					qr.Offer.Props = setOrDelete(qr.Offer.Props, name, pv, ok)
				}
				return err
			})
			if ok && qr.Offer.Props == nil {
				qr.Offer.Props = map[string]PropValue{}
			}
			return err
		}
		v, err := d.ValueAt(depthField)
		switch {
		case !isName:
		case name == "id":
			qr.Offer.ID = v.Str()
		case name == "type":
			qr.Offer.ServiceType = v.Str()
		case name == "ref":
			var hasRef bool
			if qr.Offer.Ref, hasRef = v.AsRef(); hasRef {
				st = rowOK
			} else {
				st = rowNoRef
			}
		}
		return err
	})
	switch {
	case err != nil:
		return qr, st, err
	case !ok && v.IsNil():
		return qr, rowNil, nil
	case !ok:
		return qr, rowNotTable, nil
	}
	if qr.Snapshot == nil {
		qr.Snapshot = map[string]wire.Value{}
	}
	return qr, st, nil
}

// setOrDelete stores v under name when set, else deletes name; it makes
// the map when it has to.
func setOrDelete[V any](m map[string]V, name string, v V, set bool) map[string]V {
	if !set {
		delete(m, name)
		return m
	}
	if m == nil {
		m = make(map[string]V)
	}
	m[name] = v
	return m
}

// readSource reads a dynamic property's source; ok is false unless it is a
// table with an object reference under ref.
func readSource(d *wire.Decoder) (pv PropValue, ok bool, err error) {
	_, _, err = readRecord(d, depthProp, func(k wire.Value) error {
		v, err := d.ValueAt(depthSource)
		switch k.Str() {
		case "ref":
			pv.Dynamic, ok = v.AsRef()
		case "aspect":
			pv.Aspect = v.Str()
		}
		return err
	})
	return pv, ok && err == nil, err
}
