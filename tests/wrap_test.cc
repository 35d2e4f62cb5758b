#include <gtest/gtest.h>

#include "cpdb/cpdb.h"

namespace cpdb::wrap {
namespace {

using relstore::ColumnType;
using relstore::Datum;
using tree::Path;

/// Creates `name` in `db` with the key index every relational target
/// table carries.
relstore::Table* CreateKeyedTable(relstore::Database* db,
                                  const std::string& name,
                                  relstore::Schema schema) {
  auto table = db->CreateTable(name, std::move(schema));
  EXPECT_TRUE(table.ok());
  if (!table.ok()) return nullptr;
  EXPECT_TRUE(RelationalTargetDb::CreateKeyIndex(*table).ok());
  return *table;
}

relstore::Schema ProtSchema() {
  return relstore::Schema({{"id", ColumnType::kString, false},
                           {"name", ColumnType::kString, true},
                           {"loc", ColumnType::kString, true}});
}

relstore::Database MakeSourceDb() {
  relstore::Database db("organelledb");
  auto table = workload::FillOrganelleRelational(&db, 5, 3);
  EXPECT_TRUE(table.ok());
  return db;
}

TEST(TreeSourceDbTest, CopyNodeExportsSubtree) {
  auto content = tree::ParseTree("{a1: {x: 1, y: {z: 2}}}");
  TreeSourceDb src("S1", std::move(content).value());
  auto nodes = src.CopyNode(Path::MustParse("a1"));
  ASSERT_TRUE(nodes.ok());
  // Preorder, root first: a1, a1/x, a1/y, a1/y/z.
  ASSERT_EQ(nodes->size(), 4u);
  EXPECT_EQ((*nodes)[0].path.ToString(), "a1");
  EXPECT_FALSE((*nodes)[0].value.has_value());
  EXPECT_EQ((*nodes)[1].path.ToString(), "a1/x");
  EXPECT_EQ((*nodes)[1].value->AsInt(), 1);
  EXPECT_EQ((*nodes)[3].path.ToString(), "a1/y/z");
  // A leaf yields a single-element list (Figure 6).
  auto leaf = src.CopyNode(Path::MustParse("a1/x"));
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(leaf->size(), 1u);
  EXPECT_TRUE(src.CopyNode(Path::MustParse("zz")).status().IsNotFound());
}

TEST(RelationalSourceDbTest, KeyedViewUsesFourLevelPaths) {
  relstore::Database db = MakeSourceDb();
  RelationalSourceDb src("S1", &db, {"organelle"});
  auto view = src.TreeFromDb();
  ASSERT_TRUE(view.ok());
  // DB/R/tid/F addressing: organelle table, tuple o1, field organelle.
  const tree::Tree* field =
      view->Find(Path::MustParse("organelle/o1/organelle"));
  ASSERT_NE(field, nullptr);
  EXPECT_TRUE(field->HasValue());
  // All five tuples exposed, each with three non-key fields.
  const tree::Tree* rel = view->Find(Path::MustParse("organelle"));
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->ChildCount(), 5u);
  EXPECT_EQ(rel->GetChild("o1")->ChildCount(), 3u);
}

TEST(RelationalSourceDbTest, ChargesCostPerCall) {
  relstore::Database db = MakeSourceDb();
  RelationalSourceDb src("S1", &db, {"organelle"});
  double before = db.cost().ElapsedMicros();
  ASSERT_TRUE(src.TreeFromDb().ok());
  EXPECT_GT(db.cost().ElapsedMicros(), before);
}

TEST(RelationalTargetDbTest, AtomicUpdatesMapToRowOperations) {
  relstore::Database db("targetdb");
  ASSERT_NE(CreateKeyedTable(&db, "prot", ProtSchema()), nullptr);
  RelationalTargetDb target("T", &db, {"prot"});

  // ins {p1 : {}} into prot  -> fresh tuple.
  ASSERT_TRUE(target
                  .ApplyNative(update::Update::Insert(
                                   Path::MustParse("prot"), "p1"),
                               nullptr)
                  .ok());
  // ins {name : "ABC1"} into prot/p1 -> set the NULL field.
  ASSERT_TRUE(target
                  .ApplyNative(update::Update::Insert(
                                   Path::MustParse("prot/p1"), "name",
                                   tree::Value("ABC1")),
                               nullptr)
                  .ok());
  // Setting it again must fail (duplicate edge in tree terms).
  EXPECT_TRUE(target
                  .ApplyNative(update::Update::Insert(
                                   Path::MustParse("prot/p1"), "name",
                                   tree::Value("X")),
                               nullptr)
                  .IsAlreadyExists());
  // copy into prot/p1/loc -> field update from a pasted leaf.
  tree::Tree leaf{tree::Value("membrane")};
  ASSERT_TRUE(target
                  .ApplyNative(update::Update::Copy(
                                   Path(), Path::MustParse("prot/p1/loc")),
                               &leaf)
                  .ok());
  // Read back through the tree view.
  auto view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("prot/p1/name"))->value().AsString(),
            "ABC1");
  EXPECT_EQ(view->Find(Path::MustParse("prot/p1/loc"))->value().AsString(),
            "membrane");
  // del name from prot/p1 -> NULLed field disappears from the view? No:
  // NULL fields render as null leaves; the tuple keeps its arity.
  ASSERT_TRUE(target
                  .ApplyNative(update::Update::Delete(
                                   Path::MustParse("prot/p1"), "name"),
                               nullptr)
                  .ok());
  view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(
      view->Find(Path::MustParse("prot/p1/name"))->value().is_null());
  // del p1 from prot -> tuple gone.
  ASSERT_TRUE(target
                  .ApplyNative(update::Update::Delete(
                                   Path::MustParse("prot"), "p1"),
                               nullptr)
                  .ok());
  view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("prot/p1")), nullptr);
}

TEST(RelationalTargetDbTest, WholeTupleUpsertFromPaste) {
  relstore::Database db("targetdb");
  ASSERT_NE(CreateKeyedTable(&db, "prot", ProtSchema()), nullptr);
  RelationalTargetDb target("T", &db, {"prot"});

  auto tuple = tree::ParseTree("{name: CRP, loc: plasma}");
  ASSERT_TRUE(target
                  .ApplyNative(update::Update::Copy(
                                   Path(), Path::MustParse("prot/p7")),
                               &tuple.value())
                  .ok());
  auto view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("prot/p7/name"))->value().AsString(),
            "CRP");
}

TEST(RelationalTargetDbTest, SchemaMismatchesAreRejected) {
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kString, false},
                           {"name", ColumnType::kString, true}});
  ASSERT_NE(CreateKeyedTable(&db, "prot", schema), nullptr);
  RelationalTargetDb target("T", &db, {"prot"});
  // Unknown table.
  EXPECT_FALSE(target
                   .ApplyNative(update::Update::Insert(
                                    Path::MustParse("genes"), "g1"),
                                nullptr)
                   .ok());
  // Too-deep nesting.
  EXPECT_FALSE(target
                   .ApplyNative(update::Update::Insert(
                                    Path::MustParse("prot/p1/name"), "sub"),
                                nullptr)
                   .ok());
  // Unknown column.
  ASSERT_TRUE(target
                  .ApplyNative(update::Update::Insert(
                                   Path::MustParse("prot"), "p1"),
                               nullptr)
                  .ok());
  EXPECT_FALSE(target
                   .ApplyNative(update::Update::Insert(
                                    Path::MustParse("prot/p1"), "color",
                                    tree::Value("red")),
                                nullptr)
                   .ok());
}

TEST(RelationalTargetDbTest, DuplicateTupleIdIsRejectedByTheKeyIndex) {
  relstore::Database db("targetdb");
  relstore::Table* prot = CreateKeyedTable(&db, "prot", ProtSchema());
  ASSERT_NE(prot, nullptr);
  RelationalTargetDb target("T", &db, {"prot"});
  const auto ins = update::Update::Insert(Path::MustParse("prot"), "p1");
  ASSERT_TRUE(target.ApplyNative(ins, nullptr).ok());
  // A second tuple with the same id would be a duplicate edge in tree
  // terms; the unique key index refuses it instead of storing it.
  Status again = target.ApplyNative(ins, nullptr);
  EXPECT_TRUE(again.IsAlreadyExists()) << again.ToString();
  EXPECT_EQ(prot->RowCount(), 1u);
}

TEST(RelationalTargetDbTest, TableWithoutKeyIndexFailsAtFirstUse) {
  relstore::Database db("targetdb");
  ASSERT_TRUE(db.CreateTable("prot", ProtSchema()).ok());
  RelationalTargetDb target("T", &db, {"prot"});
  Status st = target.ApplyNative(
      update::Update::Insert(Path::MustParse("prot"), "p1"), nullptr);
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_NE(st.message().find("'prot'"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("'pk'"), std::string::npos) << st.message();
  Status checked = target.CheckKeyIndexes();
  EXPECT_TRUE(checked.IsFailedPrecondition()) << checked.ToString();
  // A unique index on column 0 under another shape does not qualify
  // either: the key index has one definition.
  relstore::Database other("targetdb");
  auto genes = other.CreateTable("genes", ProtSchema());
  ASSERT_TRUE(genes.ok());
  ASSERT_TRUE((*genes)
                  ->CreateIndex("pk", {0}, relstore::IndexKind::kBTree,
                                /*unique=*/false)
                  .ok());
  RelationalTargetDb loose("T", &other, {"genes"});
  EXPECT_TRUE(loose.CheckKeyIndexes().IsFailedPrecondition());
}

TEST(RelationalTargetDbTest, IntegerKeysAreProbedByValue) {
  relstore::Database db("targetdb");
  relstore::Schema schema({{"id", ColumnType::kInt64, false},
                           {"name", ColumnType::kString, true}});
  ASSERT_NE(CreateKeyedTable(&db, "prot", schema), nullptr);
  RelationalTargetDb target("T", &db, {"prot"});
  ASSERT_TRUE(target
                  .ApplyNative(update::Update::Insert(
                                   Path::MustParse("prot"), "42"),
                               nullptr)
                  .ok());
  ASSERT_TRUE(target
                  .ApplyNative(update::Update::Insert(
                                   Path::MustParse("prot/42"), "name",
                                   tree::Value("CRP")),
                               nullptr)
                  .ok());
  auto view = target.TreeFromDb();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->Find(Path::MustParse("prot/42/name"))->value().AsString(),
            "CRP");
  // A label that is not an integer names no tuple of an integer-keyed
  // table, and cannot create one.
  EXPECT_TRUE(target
                  .ApplyNative(update::Update::Delete(
                                   Path::MustParse("prot"), "x42"),
                               nullptr)
                  .IsNotFound());
  EXPECT_TRUE(target
                  .ApplyNative(update::Update::Insert(
                                   Path::MustParse("prot"), "x42"),
                               nullptr)
                  .IsInvalidArgument());
}

// The O(1)-in-table-size gate for the served target's apply path: a
// field edit locates its tuple with one key-index probe, so a batch of 8
// edits on a 10 000-row table reads exactly 8 rows through the index and
// none through a heap scan.
TEST(RelationalTargetDbTest, FieldEditsExamineOneIndexRowEachAndNoHeapRows) {
  relstore::Database db("targetdb");
  relstore::Table* prot = CreateKeyedTable(&db, "prot", ProtSchema());
  ASSERT_NE(prot, nullptr);
  constexpr int kRows = 10000;
  std::vector<relstore::Row> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({Datum("p" + std::to_string(i)), Datum(), Datum()});
  }
  ASSERT_TRUE(prot->BulkLoad(rows).ok());
  RelationalTargetDb target("T", &db, {"prot"});

  tree::Tree leaf{tree::Value("membrane")};
  std::vector<NativeOp> ops;
  for (int i = 0; i < 8; ++i) {
    const std::string tuple = "prot/p" + std::to_string(i * 1237);
    if (i % 2 == 0) {
      ops.push_back({update::Update::Insert(Path::MustParse(tuple), "name",
                                            tree::Value("n" +
                                                        std::to_string(i))),
                     nullptr});
    } else {
      ops.push_back({update::Update::Copy(Path(),
                                          Path::MustParse(tuple + "/loc")),
                     &leaf});
    }
  }
  const uint64_t heap0 = prot->heap_scan_rows();
  const uint64_t index0 = prot->index_rows();
  ASSERT_TRUE(target.ApplyBatch(ops).ok());
  EXPECT_EQ(prot->index_rows() - index0, 8u);
  EXPECT_EQ(prot->heap_scan_rows() - heap0, 0u);
  EXPECT_EQ(prot->RowCount(), static_cast<size_t>(kRows));

  // The edits landed on the tuples they named.
  uint64_t hits = 0;
  ASSERT_TRUE(prot->LookupEq(RelationalTargetDb::kKeyIndex,
                             {Datum("p" + std::to_string(1237))},
                             [&](const relstore::Rid&,
                                 const relstore::Row& row) {
                               EXPECT_EQ(row[2].AsString(), "membrane");
                               ++hits;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(hits, 1u);
}

TEST(EndToEndTest, RelationalSourceFeedsTreeTarget) {
  // The paper's actual deployment shape: relational source (OrganelleDB
  // on MySQL) wrapped as a tree, native-tree target (MiMI on Timber).
  relstore::Database source_db = MakeSourceDb();
  RelationalSourceDb source("S1", &source_db, {"organelle"});
  TreeTargetDb target("T", tree::Tree());
  relstore::Database prov_db("provdb");
  provenance::ProvBackend backend(&prov_db);

  auto editor = Editor::Create(&target, &backend, EditorOptions{});
  ASSERT_TRUE(editor.ok());
  ASSERT_TRUE((*editor)->MountSource(&source).ok());
  ASSERT_TRUE((*editor)
                  ->CopyPaste(Path::MustParse("S1/organelle/o2"),
                              Path::MustParse("T/entry1"))
                  .ok());
  ASSERT_TRUE((*editor)->Commit().ok());
  EXPECT_TRUE(
      (*editor)->universe().Contains(Path::MustParse("T/entry1/protein")));
  auto trace =
      (*editor)->query()->TraceBack(Path::MustParse("T/entry1/protein"));
  ASSERT_TRUE(trace.ok());
  ASSERT_TRUE(trace->external_src.has_value());
  EXPECT_EQ(trace->external_src->ToString(), "S1/organelle/o2/protein");
}

}  // namespace
}  // namespace cpdb::wrap
