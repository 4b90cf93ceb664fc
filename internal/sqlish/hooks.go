package sqlish

import (
	"fmt"

	"viewupdate/internal/storage"
	"viewupdate/internal/update"
)

// SetApplier installs the durable applier. When set, every translation
// committed outside a transaction — base-table statements, view
// updates, COMMIT diffs — goes through fn instead of the session's
// in-memory database. AttachStore (the CLI) points it at a
// persist.Store; the serving engine at its journaling discipline,
// whatever store is behind it; a follower at a function that refuses
// every write.
func (s *Session) SetApplier(fn func(*update.Translation) error) { s.applier = fn }

// SetSchemaChanged installs a hook that runs after DDL grows the
// schema (a CREATE TABLE has been added to the session schema and the
// database's reference index was rebuilt). Durable sessions checkpoint
// in it — DDL is snapshot-persisted, not WAL-journaled.
func (s *Session) SetSchemaChanged(fn func() error) { s.schemaChanged = fn }

// AdoptRecovered adopts a recovered database as the session's own: the
// session must be empty, and domains are re-registered from the
// recovered relations so an -init script's CREATE DOMAIN statements
// skip-exist. Views, policies and indexes are not durable — replay the
// defining script to rebuild them.
func (s *Session) AdoptRecovered(db *storage.Database) error {
	if s.tx != nil {
		return fmt.Errorf("sqlish: cannot adopt a database inside a transaction")
	}
	if len(s.sch.RelationNames()) != 0 {
		return fmt.Errorf("sqlish: cannot adopt a recovered database into a non-empty session")
	}
	s.db = db
	s.sch = db.Schema()
	for _, rn := range s.sch.RelationNames() {
		for _, a := range s.sch.Relation(rn).Attributes() {
			s.domains[a.Domain.Name()] = a.Domain
		}
	}
	return nil
}
