#include "wrap/relational_target.h"

#include <optional>

#include "util/str.h"
#include "wrap/relational_source.h"

namespace cpdb::wrap {

using relstore::ColumnType;
using relstore::Datum;
using relstore::IndexDef;
using relstore::IndexKind;
using relstore::Rid;
using relstore::Row;
using relstore::Table;

Status RelationalTargetDb::CreateKeyIndex(Table* table) {
  return table->CreateIndex(kKeyIndex, {0}, IndexKind::kBTree,
                            /*unique=*/true);
}

Result<tree::Tree> RelationalTargetDb::TreeFromDb() {
  // The read side is identical to the source wrapper's keyed view.
  RelationalSourceDb reader(name_, db_, tables_);
  return reader.TreeFromDb();
}

Result<Table*> RelationalTargetDb::TableFor(const std::string& name) {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i] != name) continue;
    if (keyed_[i] != nullptr) return keyed_[i];
    CPDB_ASSIGN_OR_RETURN(Table * table, db_->GetTable(name));
    for (const IndexDef& def : table->IndexDefs()) {
      if (def.name == kKeyIndex && def.kind == IndexKind::kBTree &&
          def.unique && def.columns == std::vector<int>{0}) {
        keyed_[i] = table;
        return table;
      }
    }
    return Status::FailedPrecondition(
        "table '" + name + "' of target " + name_ + " has no key index '" +
        kKeyIndex +
        "' (unique B+-tree on column 0); it is created with the table by "
        "RelationalTargetDb::CreateKeyIndex, which needs an empty table");
  }
  return Status::NotFound("table '" + name + "' is not exposed by target " +
                          name_);
}

Status RelationalTargetDb::CheckKeyIndexes() {
  for (const std::string& t : tables_) {
    CPDB_RETURN_IF_ERROR(TableFor(t).status());
  }
  return Status::OK();
}

bool RelationalTargetDb::KeyDatum(const Table& table, const std::string& label,
                                  Datum* out) {
  if (table.schema().column(0).type != ColumnType::kInt64) {
    *out = Datum(label);
    return true;
  }
  int64_t key = 0;
  if (!ParseInt64(label, &key)) return false;
  *out = Datum(key);
  return true;
}

Result<RelationalTargetDb::Tuple> RelationalTargetDb::FindRow(
    Table* table, const std::string& tid_label) {
  Datum key;
  std::optional<Tuple> found;
  if (KeyDatum(*table, tid_label, &key)) {
    CPDB_RETURN_IF_ERROR(table->LookupEq(
        kKeyIndex, {key}, [&](const Rid& rid, const Row& row) {
          found = Tuple{rid, row};
          return false;
        }));
  }
  if (!found.has_value()) {
    return Status::NotFound("no tuple '" + tid_label + "' in table " +
                            table->name());
  }
  return std::move(*found);
}

Status RelationalTargetDb::RewriteRow(Table* table, const Rid& rid,
                                      Row row) {
  CPDB_RETURN_IF_ERROR(table->Delete(rid));
  return table->Insert(row).status();
}

Result<Datum> RelationalTargetDb::ValueToDatum(const tree::Value& v,
                                               ColumnType type) {
  if (v.is_null()) return Datum();
  switch (type) {
    case ColumnType::kInt64:
      if (v.is_int()) return Datum(v.AsInt());
      break;
    case ColumnType::kDouble:
      if (v.is_double()) return Datum(v.AsDouble());
      if (v.is_int()) return Datum(static_cast<double>(v.AsInt()));
      break;
    case ColumnType::kString:
      return Datum(v.ToString());
  }
  return Status::InvalidArgument("value '" + v.ToString() +
                                 "' does not fit column type");
}

Status RelationalTargetDb::ApplyNative(const update::Update& u,
                                       const tree::Tree* copied_subtree) {
  cost().ChargeWrite(1);
  return ApplyOne(u, copied_subtree);
}

Status RelationalTargetDb::ApplyBatch(const std::vector<NativeOp>& ops) {
  if (ops.empty()) return Status::OK();
  cost().ChargeWrite(ops.size());
  for (const NativeOp& op : ops) {
    CPDB_RETURN_IF_ERROR(ApplyOne(op.update, op.pasted));
  }
  return Status::OK();
}

Status RelationalTargetDb::ApplyOne(const update::Update& u,
                                    const tree::Tree* copied_subtree) {
  const tree::Path& p = u.target;

  switch (u.kind) {
    case update::OpKind::kInsert: {
      if (p.Depth() == 1) {
        // ins {tid : {}} into R: fresh tuple, NULL fields.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        if (u.value.has_value()) {
          return Status::NotSupported(
              "a tuple node cannot carry a data value");
        }
        Row row(table->schema().NumColumns());
        if (!KeyDatum(*table, u.label, &row[0])) {
          return Status::InvalidArgument("tuple id '" + u.label +
                                         "' is not an integer key");
        }
        // An existing id fails the key index's unique constraint
        // (AlreadyExists) — the tuple is never duplicated.
        return table->Insert(row).status();
      }
      if (p.Depth() == 2) {
        // ins {F : v} into R/tid: set a field that is currently NULL.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        int col = table->schema().IndexOf(u.label);
        if (col <= 0) {
          return Status::NotSupported("no column '" + u.label +
                                      "' in table " + p.At(0));
        }
        CPDB_ASSIGN_OR_RETURN(Tuple t, FindRow(table, p.At(1)));
        if (!t.row[static_cast<size_t>(col)].is_null()) {
          return Status::AlreadyExists("field '" + u.label +
                                       "' already set");
        }
        tree::Value v = u.value.value_or(tree::Value());
        CPDB_ASSIGN_OR_RETURN(
            t.row[static_cast<size_t>(col)],
            ValueToDatum(v, table->schema().column(static_cast<size_t>(col))
                                .type));
        return RewriteRow(table, t.rid, std::move(t.row));
      }
      return Status::NotSupported(
          "relational target supports only R and R/tid insert depths");
    }

    case update::OpKind::kDelete: {
      if (p.Depth() == 1) {
        // del tid from R.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        CPDB_ASSIGN_OR_RETURN(Tuple t, FindRow(table, u.label));
        return table->Delete(t.rid);
      }
      if (p.Depth() == 2) {
        // del F from R/tid: NULL out the field.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        int col = table->schema().IndexOf(u.label);
        if (col <= 0) {
          return Status::NotSupported("no column '" + u.label +
                                      "' in table " + p.At(0));
        }
        CPDB_ASSIGN_OR_RETURN(Tuple t, FindRow(table, p.At(1)));
        t.row[static_cast<size_t>(col)] = Datum();
        return RewriteRow(table, t.rid, std::move(t.row));
      }
      return Status::NotSupported(
          "relational target supports only R and R/tid delete depths");
    }

    case update::OpKind::kCopy: {
      if (copied_subtree == nullptr) {
        return Status::InvalidArgument("paste requires the copied subtree");
      }
      if (p.Depth() == 2) {
        // copy ... into R/tid: upsert the whole tuple from the subtree's
        // leaf children.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        auto existing = FindRow(table, p.At(1));
        Row row(table->schema().NumColumns());
        if (existing.ok()) {
          row = existing.value().row;
        } else if (!KeyDatum(*table, p.At(1), &row[0])) {
          return Status::InvalidArgument("tuple id '" + p.At(1) +
                                         "' is not an integer key");
        }
        for (const auto& [label, child] : copied_subtree->children()) {
          int col = table->schema().IndexOf(label);
          if (col <= 0) {
            return Status::NotSupported("no column '" + label +
                                        "' in table " + p.At(0));
          }
          tree::Value v =
              child->HasValue() ? child->value() : tree::Value();
          CPDB_ASSIGN_OR_RETURN(
              row[static_cast<size_t>(col)],
              ValueToDatum(v, table->schema()
                                  .column(static_cast<size_t>(col))
                                  .type));
        }
        if (existing.ok()) {
          return RewriteRow(table, existing.value().rid, std::move(row));
        }
        return table->Insert(row).status();
      }
      if (p.Depth() == 3) {
        // copy ... into R/tid/F: field update.
        CPDB_ASSIGN_OR_RETURN(Table * table, TableFor(p.At(0)));
        int col = table->schema().IndexOf(p.At(2));
        if (col <= 0) {
          return Status::NotSupported("no column '" + p.At(2) +
                                      "' in table " + p.At(0));
        }
        CPDB_ASSIGN_OR_RETURN(Tuple t, FindRow(table, p.At(1)));
        tree::Value v = copied_subtree->HasValue() ? copied_subtree->value()
                                                   : tree::Value();
        CPDB_ASSIGN_OR_RETURN(
            t.row[static_cast<size_t>(col)],
            ValueToDatum(v, table->schema().column(static_cast<size_t>(col))
                                .type));
        return RewriteRow(table, t.rid, std::move(t.row));
      }
      return Status::NotSupported(
          "relational target supports pastes at R/tid and R/tid/F only");
    }
  }
  return Status::Internal("unknown update kind");
}

}  // namespace cpdb::wrap
