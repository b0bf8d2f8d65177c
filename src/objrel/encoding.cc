#include "objrel/encoding.h"

#include <algorithm>
#include <set>

namespace setrec {

std::string PropertyRelationName(const Schema& schema, PropertyId p) {
  const Schema::PropertyDef& def = schema.property(p);
  return schema.class_name(def.source) + def.name;
}

Result<Catalog> EncodeCatalog(const Schema& schema) {
  Catalog catalog;
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    SETREC_ASSIGN_OR_RETURN(
        RelationScheme scheme,
        RelationScheme::Make({Attribute{schema.class_name(c), c}}));
    SETREC_RETURN_IF_ERROR(
        catalog.AddRelation(schema.class_name(c), std::move(scheme)));
  }
  for (PropertyId p = 0; p < schema.num_properties(); ++p) {
    const Schema::PropertyDef& def = schema.property(p);
    SETREC_ASSIGN_OR_RETURN(
        RelationScheme scheme,
        RelationScheme::Make(
            {Attribute{schema.class_name(def.source), def.source},
             Attribute{def.name, def.target}}));
    Status added =
        catalog.AddRelation(PropertyRelationName(schema, p), std::move(scheme));
    if (!added.ok()) {
      return Status::InvalidArgument(
          "encoded relation name collides: " + PropertyRelationName(schema, p) +
          "; rename schema elements");
    }
  }
  return catalog;
}

DependencySet InducedDependencies(const Schema& schema) {
  DependencySet deps;
  for (PropertyId p = 0; p < schema.num_properties(); ++p) {
    const Schema::PropertyDef& def = schema.property(p);
    const std::string rel = PropertyRelationName(schema, p);
    deps.inds.push_back(InclusionDependency{
        rel, {schema.class_name(def.source)}, schema.class_name(def.source)});
    deps.inds.push_back(
        InclusionDependency{rel, {def.name}, schema.class_name(def.target)});
  }
  for (ClassId a = 0; a < schema.num_classes(); ++a) {
    for (ClassId b = a + 1; b < schema.num_classes(); ++b) {
      deps.disjointness.push_back(DisjointnessDependency{
          schema.class_name(a), schema.class_name(b)});
    }
  }
  return deps;
}

namespace {

/// Installs the relations named in `wanted`, or every relation when `all`,
/// with schemes from `catalog`. Class relations are encoded; property
/// relations are encoded, or bound when `bind`. Every encoded row counts in
/// InstanceCosts().encoded_rows.
Result<Database> Encode(const Instance& instance, const Catalog& catalog,
                        std::span<const std::string> wanted, bool all,
                        bool bind) {
  const Schema& schema = instance.schema();
  Counter& encoded_rows = InstanceCosts().encoded_rows;
  auto selected = [&](const std::string& name) {
    return all || std::find(wanted.begin(), wanted.end(), name) != wanted.end();
  };
  Database db;
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    if (!selected(schema.class_name(c))) continue;
    SETREC_ASSIGN_OR_RETURN(const RelationScheme* scheme,
                            catalog.Find(schema.class_name(c)));
    Relation rel(*scheme);
    for (ObjectId o : instance.objects(c)) {
      SETREC_RETURN_IF_ERROR(rel.Insert(Tuple{o}));
    }
    encoded_rows.Add(rel.size());
    db.Put(schema.class_name(c), std::move(rel));
  }
  for (PropertyId p = 0; p < schema.num_properties(); ++p) {
    std::string name = PropertyRelationName(schema, p);
    if (!selected(name)) continue;
    SETREC_ASSIGN_OR_RETURN(const RelationScheme* scheme, catalog.Find(name));
    if (bind) {
      SETREC_RETURN_IF_ERROR(db.Bind(std::move(name), *scheme,
                                     &instance.edges(p), &encoded_rows));
      continue;
    }
    Relation rel(*scheme);
    for (const auto& [src, dst] : instance.edges(p)) {
      SETREC_RETURN_IF_ERROR(rel.Insert(Tuple{src, dst}));
    }
    encoded_rows.Add(rel.size());
    db.Put(std::move(name), std::move(rel));
  }
  return db;
}

}  // namespace

Result<Database> EncodeInstance(const Instance& instance) {
  InstanceCosts().encodes.Add(1);
  SETREC_ASSIGN_OR_RETURN(Catalog catalog, EncodeCatalog(instance.schema()));
  return Encode(instance, catalog, {}, /*all=*/true, /*bind=*/false);
}

Result<Database> EncodeInstance(const Instance& instance,
                                std::span<const std::string> relations) {
  SETREC_ASSIGN_OR_RETURN(Catalog catalog, EncodeCatalog(instance.schema()));
  return Encode(instance, catalog, relations, /*all=*/false, /*bind=*/false);
}

Result<Database> BindInstance(const Instance& instance, const Catalog& catalog,
                              std::span<const std::string> relations) {
  return Encode(instance, catalog, relations, /*all=*/false, /*bind=*/true);
}

Result<Instance> DecodeInstance(const Database& database,
                                const Schema& schema) {
  Instance instance(&schema);
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    SETREC_ASSIGN_OR_RETURN(const Relation* rel,
                            database.Find(schema.class_name(c)));
    if (rel->scheme().arity() != 1) {
      return Status::InvalidArgument("class relation must be unary: " +
                                     schema.class_name(c));
    }
    for (const Tuple& t : *rel) {
      SETREC_RETURN_IF_ERROR(instance.AddObject(t.at(0)));
    }
  }
  for (PropertyId p = 0; p < schema.num_properties(); ++p) {
    SETREC_ASSIGN_OR_RETURN(const Relation* rel,
                            database.Find(PropertyRelationName(schema, p)));
    if (rel->scheme().arity() != 2) {
      return Status::InvalidArgument("property relation must be binary: " +
                                     PropertyRelationName(schema, p));
    }
    for (const Tuple& t : *rel) {
      // AddEdge enforces the induced inclusion dependencies: both endpoints
      // must already be present with the declared classes.
      SETREC_RETURN_IF_ERROR(instance.AddEdge(t.at(0), p, t.at(1)));
    }
  }
  return instance;
}

Result<std::vector<Receiver>> ReceiversFromRelation(
    const Relation& result, const MethodSignature& signature) {
  if (result.scheme().arity() != signature.size()) {
    return Status::InvalidArgument(
        "query result arity does not match the method signature");
  }
  for (std::size_t i = 0; i < signature.size(); ++i) {
    if (result.scheme().attribute(i).domain != signature.class_at(i)) {
      return Status::InvalidArgument(
          "query result domain does not match the signature at position " +
          std::to_string(i));
    }
  }
  std::vector<Receiver> receivers;
  receivers.reserve(result.size());
  for (const Tuple* t : result.SortedTuples()) {
    receivers.push_back(Receiver::Unchecked(t->values()));
  }
  return receivers;
}

}  // namespace setrec
