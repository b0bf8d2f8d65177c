#include "coloring/witness.h"

#include <map>
#include <set>

namespace setrec {

WitnessObjects::WitnessObjects(const Schema& schema) {
  std::vector<std::uint32_t> next(schema.num_classes(), 3);  // 0..2 reserved
  for (PropertyId e = 0; e < schema.num_properties(); ++e) {
    const Schema::PropertyDef& def = schema.property(e);
    edge1_.push_back(ObjectId(def.source, next[def.source]++));
    edge2_.push_back(ObjectId(def.target, next[def.target]++));
    edge3_.push_back(ObjectId(def.source, next[def.source]++));
    edge4_.push_back(ObjectId(def.target, next[def.target]++));
  }
}

namespace {

bool HasU(ColorSet c) { return c.Has(Color::kUse); }
bool HasC(ColorSet c) { return c.Has(Color::kCreate); }
bool HasD(ColorSet c) { return c.Has(Color::kDelete); }

/// Static analysis of which schema items the witness actions *test* (branch
/// on the presence of). Exactly-{u} items not in these sets receive the
/// divergence guard.
struct TestedItems {
  std::set<ClassId> classes;
  std::set<PropertyId> properties;
};

/// Tests performed by a provisional node deletion of an X-object (shared by
/// both axiomatizations; the caller restricts when it is invoked).
void ProvisionalDeleteTests(const Schema& schema, const Coloring& k, ClassId x,
                            UseAxiomatization ax, TestedItems& tested) {
  for (PropertyId f : schema.IncidentProperties(x)) {
    ColorSet fc = k.GetProperty(f);
    const Schema::PropertyDef& def = schema.property(f);
    const ClassId other = def.source == x ? def.target : def.source;
    if (HasD(fc)) continue;
    if (HasU(fc)) {
      tested.properties.insert(f);
    } else if (ax == UseAxiomatization::kDeflationary && HasC(fc) &&
               !HasU(k.GetClass(other))) {
      // The Unimplemented corner; flagged at construction time.
    } else {
      tested.classes.insert(other);
    }
  }
}

TestedItems ComputeTestedItems(const Schema& schema, const Coloring& k,
                               UseAxiomatization ax) {
  TestedItems tested;
  const bool infl = ax == UseAxiomatization::kInflationary;
  for (ClassId x = 0; x < schema.num_classes(); ++x) {
    ColorSet cs = k.GetClass(x);
    if (infl) {
      if (HasC(cs) && HasU(cs)) tested.classes.insert(x);  // tests o_u^X
      if (HasD(cs) && HasU(cs)) ProvisionalDeleteTests(schema, k, x, ax, tested);
    } else {
      if (HasC(cs)) tested.classes.insert(x);  // tests o_c^X (Example 4.21)
      if (HasD(cs)) {
        if (HasU(cs)) tested.classes.insert(x);  // gated on o_u^X
        ProvisionalDeleteTests(schema, k, x, ax, tested);
      }
    }
  }
  for (PropertyId e = 0; e < schema.num_properties(); ++e) {
    ColorSet cs = k.GetProperty(e);
    const Schema::PropertyDef& def = schema.property(e);
    if (HasC(cs)) {
      // Provisional edge creation branches on endpoint presence whenever the
      // endpoint is not itself created.
      if (infl || HasU(cs)) {
        if (!HasC(k.GetClass(def.source))) tested.classes.insert(def.source);
        if (!HasC(k.GetClass(def.target))) tested.classes.insert(def.target);
      }
      if (HasU(cs)) tested.properties.insert(e);  // tests (o3, e, o4)
    }
    if (!infl && HasD(cs) && HasU(cs) && !HasC(cs)) {
      tested.properties.insert(e);  // deflationary {u,d}: gated removal
    }
    if (infl && HasD(cs) && !HasU(cs)) {
      // inflationary edge {d}/{c,d}: provisional deletion of an endpoint.
      const ClassId victim =
          HasD(k.GetClass(def.source)) ? def.source : def.target;
      ProvisionalDeleteTests(schema, k, victim, ax, tested);
    }
  }
  return tested;
}

/// The witness method. Tests are evaluated against a copy of the *input*
/// instance while the actions mutate the instance itself, so the actions of
/// different items (which involve pairwise distinct fixed objects) commute,
/// and the create/remove pair of a {c,d,u} edge acts as a presence toggle.
class WitnessMethod final : public UpdateMethod {
 public:
  WitnessMethod(const Schema* schema, Coloring coloring,
                UseAxiomatization ax, MethodSignature signature)
      : UpdateMethod(std::move(signature), "witness"),
        schema_(schema),
        coloring_(std::move(coloring)),
        ax_(ax),
        objects_(*schema),
        tested_(ComputeTestedItems(*schema, coloring_, ax)) {}

  Status ApplyInPlace(Instance& instance, const Receiver& receiver,
                      ExecContext&) const override {
    SETREC_RETURN_IF_ERROR(CheckReceiver(instance, receiver));
    const Instance in = instance;
    Instance& out = instance;
    const Schema& schema = *schema_;
    const bool infl = ax_ == UseAxiomatization::kInflationary;

    // Divergence guards for untested exactly-{u} items.
    for (ClassId x = 0; x < schema.num_classes(); ++x) {
      if (coloring_.GetClass(x) == kU && !tested_.classes.contains(x) &&
          !in.HasObject(objects_.NodeU(x))) {
        return Status::Diverges("missing designated u-object of class " +
                                schema.class_name(x));
      }
    }
    for (PropertyId e = 0; e < schema.num_properties(); ++e) {
      if (coloring_.GetProperty(e) == kU && !tested_.properties.contains(e) &&
          !in.HasEdge(objects_.Edge1(e), e, objects_.Edge2(e))) {
        return Status::Diverges("missing designated u-edge " +
                                schema.property(e).name);
      }
    }

    // Node actions.
    for (ClassId x = 0; x < schema.num_classes(); ++x) {
      ColorSet cs = coloring_.GetClass(x);
      if (infl) {
        if (HasC(cs) && !HasU(cs)) {
          SETREC_RETURN_IF_ERROR(out.AddObject(objects_.NodeC(x)));
        } else if (HasC(cs) && HasU(cs)) {
          if (in.HasObject(objects_.NodeU(x))) {
            SETREC_RETURN_IF_ERROR(out.AddObject(objects_.NodeC(x)));
          }
        }
        if (HasD(cs) && HasU(cs)) {
          SETREC_RETURN_IF_ERROR(ProvisionalDeleteNode(in, out, x,
                                                       objects_.NodeD(x)));
        }
      } else {
        if (HasC(cs)) {
          // Example 4.21: add o_c^X when absent, plus the edges of any
          // incident {c}-but-not-{u} properties to all present other-side
          // objects.
          if (!in.HasObject(objects_.NodeC(x))) {
            SETREC_RETURN_IF_ERROR(out.AddObject(objects_.NodeC(x)));
            SETREC_RETURN_IF_ERROR(AddLocalCreationEdges(in, out, x));
          }
        }
        if (HasD(cs)) {
          bool gate = true;
          if (HasU(cs)) gate = in.HasObject(objects_.NodeU(x));
          if (gate) {
            SETREC_RETURN_IF_ERROR(ProvisionalDeleteNode(in, out, x,
                                                         objects_.NodeD(x)));
          }
        }
      }
    }
    // Edge actions.
    for (PropertyId e = 0; e < schema.num_properties(); ++e) {
      ColorSet cs = coloring_.GetProperty(e);
      const Schema::PropertyDef& def = schema.property(e);
      if (infl) {
        if (HasC(cs) && !HasU(cs)) {
          SETREC_RETURN_IF_ERROR(ProvisionalCreateEdge(in, out, e));
        } else if (HasC(cs) && HasU(cs) && !HasD(cs)) {
          if (in.HasEdge(objects_.Edge3(e), e, objects_.Edge4(e))) {
            SETREC_RETURN_IF_ERROR(ProvisionalCreateEdge(in, out, e));
          }
        } else if (HasC(cs) && HasU(cs) && HasD(cs)) {
          SETREC_RETURN_IF_ERROR(ProvisionalCreateEdge(in, out, e));
        }
        if (HasD(cs) && !HasU(cs)) {
          const ClassId victim =
              HasD(coloring_.GetClass(def.source)) ? def.source : def.target;
          const ObjectId o = victim == def.source ? objects_.Edge1(e)
                                                  : objects_.Edge2(e);
          SETREC_RETURN_IF_ERROR(ProvisionalDeleteNode(in, out, victim, o));
        } else if (HasD(cs) && HasU(cs)) {
          // Gated on the *input* so that the {c,d,u} create/remove pair
          // toggles presence instead of the removal always winning.
          if (in.HasEdge(objects_.Edge1(e), e, objects_.Edge2(e))) {
            SETREC_RETURN_IF_ERROR(
                out.RemoveEdge(objects_.Edge1(e), e, objects_.Edge2(e)));
          }
        }
      } else {
        // Deflationary. Pure-{c} creation is handled by the incident
        // created node's action (AddLocalCreationEdges).
        if (HasC(cs) && HasU(cs)) {
          if (in.HasEdge(objects_.Edge3(e), e, objects_.Edge4(e))) {
            SETREC_RETURN_IF_ERROR(ProvisionalCreateEdge(in, out, e));
          }
        }
        if (HasD(cs)) {
          bool gate = true;
          if (HasU(cs) && !HasC(cs)) {
            gate = in.HasEdge(objects_.Edge3(e), e, objects_.Edge4(e));
          }
          if (gate && in.HasEdge(objects_.Edge1(e), e, objects_.Edge2(e))) {
            SETREC_RETURN_IF_ERROR(
                out.RemoveEdge(objects_.Edge1(e), e, objects_.Edge2(e)));
          }
        }
      }
    }
    return Status::OK();
  }

 private:
  /// Deletes `victim` (class x) and its incident edges unless a presence
  /// test succeeds (proof of Proposition 4.13, case {d,u}).
  Status ProvisionalDeleteNode(const Instance& in, Instance& out, ClassId x,
                               ObjectId victim) const {
    if (!in.HasObject(victim)) return Status::OK();
    for (PropertyId f : schema_->IncidentProperties(x)) {
      ColorSet fc = coloring_.GetProperty(f);
      const Schema::PropertyDef& def = schema_->property(f);
      const ClassId other = def.source == x ? def.target : def.source;
      if (HasD(fc)) continue;
      if (HasU(fc)) {
        // Any f-edge incident to the victim blocks the deletion.
        for (const auto& [src, dst] : in.edges(f)) {
          if (src == victim || dst == victim) return Status::OK();
        }
      } else {
        // Any object of the other class blocks the deletion.
        if (!in.objects(other).empty()) return Status::OK();
      }
    }
    return out.RemoveObject(victim);
  }

  /// Adds (o1, e, o2) together with missing endpoints, except when an
  /// endpoint is absent and its class is not colored c (proof of Proposition
  /// 4.13, edge case {c}).
  Status ProvisionalCreateEdge(const Instance& in, Instance& out,
                               PropertyId e) const {
    const Schema::PropertyDef& def = schema_->property(e);
    const ObjectId o1 = objects_.Edge1(e);
    const ObjectId o2 = objects_.Edge2(e);
    if (!in.HasObject(o1) && !HasC(coloring_.GetClass(def.source))) {
      return Status::OK();
    }
    if (!in.HasObject(o2) && !HasC(coloring_.GetClass(def.target))) {
      return Status::OK();
    }
    SETREC_RETURN_IF_ERROR(out.AddObject(o1));
    SETREC_RETURN_IF_ERROR(out.AddObject(o2));
    return out.AddEdge(o1, e, o2);
  }

  /// Deflationary Example 4.21: when the created node o_c^X appears, every
  /// incident property colored c but not u gains edges from/to all present
  /// objects of the other class.
  Status AddLocalCreationEdges(const Instance& in, Instance& out,
                               ClassId x) const {
    for (PropertyId f : schema_->IncidentProperties(x)) {
      ColorSet fc = coloring_.GetProperty(f);
      if (!HasC(fc) || HasU(fc)) continue;
      const Schema::PropertyDef& def = schema_->property(f);
      if (def.source == x) {
        for (ObjectId b : in.objects(def.target)) {
          SETREC_RETURN_IF_ERROR(out.AddObject(b));
          SETREC_RETURN_IF_ERROR(out.AddEdge(objects_.NodeC(x), f, b));
        }
      }
      if (def.target == x) {
        for (ObjectId a : in.objects(def.source)) {
          SETREC_RETURN_IF_ERROR(out.AddObject(a));
          SETREC_RETURN_IF_ERROR(out.AddEdge(a, f, objects_.NodeC(x)));
        }
      }
    }
    return Status::OK();
  }

  const Schema* schema_;
  Coloring coloring_;
  UseAxiomatization ax_;
  WitnessObjects objects_;
  TestedItems tested_;
};

}  // namespace

Result<std::unique_ptr<UpdateMethod>> MakeWitnessMethod(
    const Schema* schema, const Coloring& coloring,
    UseAxiomatization axiomatization) {
  SoundnessReport report = CheckSoundness(coloring, axiomatization);
  if (!report.sound) {
    std::string msg = "coloring is not sound:";
    for (const std::string& v : report.violations) msg += " " + v + ";";
    return Status::InvalidArgument(std::move(msg));
  }
  if (axiomatization == UseAxiomatization::kDeflationary) {
    // The corner the paper only sketches: a d-node with an incident edge
    // colored exactly {c} whose other endpoint is not u.
    for (ClassId x = 0; x < schema->num_classes(); ++x) {
      if (!coloring.GetClass(x).Has(Color::kDelete)) continue;
      for (PropertyId f : schema->IncidentProperties(x)) {
        ColorSet fc = coloring.GetProperty(f);
        const Schema::PropertyDef& def = schema->property(f);
        const ClassId other = def.source == x ? def.target : def.source;
        if (fc.Has(Color::kCreate) && !fc.Has(Color::kUse) &&
            !fc.Has(Color::kDelete) &&
            !coloring.GetClass(other).Has(Color::kUse)) {
          return Status::Unimplemented(
              "deflationary witness for a d-node with a pure-{c} incident "
              "edge whose other endpoint is not u");
        }
      }
    }
  }
  // Signature [X] for the least u-colored node (soundness guarantees one).
  ClassId receiving = 0;
  for (ClassId x = 0; x < schema->num_classes(); ++x) {
    if (coloring.GetClass(x).Has(Color::kUse)) {
      receiving = x;
      break;
    }
  }
  return std::unique_ptr<UpdateMethod>(
      new WitnessMethod(schema, coloring, axiomatization,
                        MethodSignature({receiving})));
}

}  // namespace setrec
