package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType
import repro.events.SystemEvent
import repro.saql.Ast._

/** One test of one event column, as data: `column op value`, with `op` a
  * SAQL comparison or `in` (`value` then lists the sorted alternatives,
  * comma-separated). Equal atoms are the same test, so [[Atom.any]] can
  * factor a test several patterns share. The comparison is checked with the
  * atom, so a bad one fails at compile time; its Catalyst predicate is built
  * on first use, as building a `Column` costs tens of microseconds (Spark
  * records its call site) and the scheduler needs one per distinct atom.
  */
final case class Atom(column: String, op: String, value: String) {
  private val test: Column => Column =
    if (op == "in") _.isin(value.split(",").toIndexedSeq: _*) else Columns.comparison(column, op, value)
  lazy val predicate: Column = test(col(column))
}

object Atom {
  /** The conjunction of the atoms (true for none). */
  def all(atoms: Seq[Atom]): Column = atoms.map(_.predicate).reduceOption(_ && _).getOrElse(lit(true))

  /** The disjunction of conjunctions of atoms (false for none), factored on
    * the atoms they share: the most shared atom first, so
    * `(a ∧ b) ∨ (a ∧ c)` is built as `a ∧ (b ∨ c)`. The distributive law
    * holds in SQL's three-valued logic, so this keeps exactly the rows of
    * the flat form, and a test shared by many patterns is evaluated once.
    */
  def any(terms: Seq[Seq[Atom]]): Column = {
    val ts = terms.map(_.distinct).distinct
    if (ts.isEmpty) lit(false)
    else if (ts.exists(_.isEmpty)) lit(true)
    else {
      val shares = ts.flatten.groupMapReduce(identity)(_ => 1)(_ + _)
      val top = ts.flatten.maxBy(shares)
      if (shares(top) == 1) ts.map(all).reduce(_ || _)
      else {
        val (sharing, rest) = ts.partition(_.contains(top))
        val factored = top.predicate && any(sharing.map(_.filterNot(_ == top)))
        if (rest.isEmpty) factored else factored || any(rest)
      }
    }
  }
}

/** A column of a rule match: event column `column` of the event that
  * pattern `alias` matched.
  */
final case class MatchCol(alias: String, column: String) {
  /** Its name in the Catalyst arm's joined rows (`evt1__ts`). */
  def name: String = s"${alias}__$column"
}

/** One event pattern of a rule query, in chain order: the atoms its events
  * satisfy and what joins it to the patterns before it in the chain, as
  * pairs of [[MatchCol]]s: identity equalities, and strict `ts` orders
  * (left before right).
  */
final case class PatternPlan(alias: String, atoms: Seq[Atom],
                             equalities: Seq[(MatchCol, MatchCol)], before: Seq[(MatchCol, MatchCol)]) {
  /** The Catalyst predicate that selects this pattern's candidate events. */
  def predicate: Column = Atom.all(atoms)

  /** The join condition over the Catalyst arm's match columns (`None` for
    * the head, or when nothing relates the pattern to the ones before it: a
    * cross join).
    */
  def join: Option[Column] =
    (equalities.map { case (l, r) => col(l.name) === col(r.name) } ++
      before.map { case (a, b) => col(a.name) < col(b.name) }).reduceOption(_ && _)
}

/** `name := func(column)`: one window aggregate over a resolved column. */
final case class StateAgg(name: String, func: String, column: String)

/** DBSCAN over each window's group points, one coordinate per state field. */
final case class ClusterPlan(fields: Seq[String], eps: Double, minPts: Int)

/** A SAQL query with every name resolved and checked, as produced by
  * [[Columns.compile]]. Batch, streaming and the scheduler all execute
  * this form; none of them resolves a name again.
  */
sealed trait QueryPlan {
  def query: SaqlQuery
  /** Each pattern's atoms: the pattern matches an event that passes all of them. */
  def conjunctions: Seq[Seq[Atom]]
  /** The event columns the scheduler's dependents read on the driver: `ts`
    * (match time or window). The atoms' columns are tested in Catalyst and
    * reach the driver only as the copy's atom bits.
    */
  def reads: Set[String] = Set("ts")
  def name: String = query.name
}

/** A rule query: the pattern chain and the return projection as
  * (label, match column) pairs, e.g. `p1 -> MatchCol("evt1", "subj_exe")`.
  */
final case class RulePlan(query: SaqlQuery, patterns: Seq[PatternPlan],
                          returns: Seq[(String, MatchCol)]) extends QueryPlan {
  def conjunctions: Seq[Seq[Atom]] = patterns.map(_.atoms)

  /** Also the event columns of the identity joins and the returns. */
  override def reads: Set[String] =
    super.reads ++ (patterns.flatMap(_.equalities).flatMap(e => Seq(e._1, e._2)) ++ returns.map(_._2)).map(_.column)

  /** The return items plus `__alert_ts`, selected from the match output. */
  def returnColumns: Seq[Column] =
    returns.map { case (label, c) => col(c.name).as(label) } :+ col("__alert_ts")
}

/** A stateful query (time-series, invariant or outlier): the window, the
  * group keys as (label, event column), the aggregates, and the bindings
  * its alert / return / invariant expressions evaluate against:
  * `keyIndex` gives the group-key position of every attribute they name.
  */
final case class StatePlan(query: SaqlQuery, conjunctions: Seq[Seq[Atom]],
                           window: WindowSpec, keys: Seq[(String, String)],
                           aggs: Seq[StateAgg], keyIndex: Map[FieldRef, Int],
                           cluster: Option[ClusterPlan]) extends QueryPlan {
  /** Also the group keys' and the aggregates' event columns. */
  override def reads: Set[String] = super.reads ++ keys.map(_._2) ++ aggs.map(_.column)
}

/** The SAQL query compiler: maps SAQL attribute names onto
  * [[repro.events.SystemEvent]] columns and turns a parsed query into the
  * [[QueryPlan]] every execution layer runs.
  *
  * Resolution is role-sensitive: `p.exe_name` maps to `subj_exe` when `p`
  * is a pattern's subject and to `obj_exe` when it is the object of a
  * `start`. Event-level attributes (`evt.amount`, `evt.ts`, …) map 1:1.
  */
object Columns {

  /** SAQL event attributes usable via a pattern alias (`evt.amount`). */
  private val eventAttrs: Map[String, String] = Map(
    "amount" -> "amount", "ts" -> "ts", "time" -> "ts", "agentid" -> "agentid",
    "op" -> "op", "id" -> "event_id", "type" -> "event_type")

  /** The event columns `avg`, `sum`, `max` and `min` can aggregate. */
  private val numericColumns: Set[String] =
    SystemEvent.schema.filter(_.dataType == LongType).map(_.name).toSet

  private def fail(msg: String): Nothing = throw new IllegalArgumentException(msg)

  /** Resolve an entity attribute for a given kind + role to a column name. */
  def entityColumn(kind: EntityKind, role: String, attr: String): String =
    (kind, attr) match {
      case (ProcKind, "exe_name" | "name" | "exe") =>
        if (role == "obj") "obj_exe" else "subj_exe"
      case (ProcKind, "pid") => if (role == "obj") "obj_pid" else "subj_pid"
      case (FileKind, "name" | "path") => "file_name"
      case (IpKind, "dstip")   => "dst_ip"
      case (IpKind, "srcip")   => "src_ip"
      case (IpKind, "dstport") => "dst_port"
      case (IpKind, "srcport") => "src_port"
      case _ => fail(s"unknown attribute '$attr' for entity kind '${kind.keyword}'")
    }

  /** Identity attributes used for implicit shared-variable joins. */
  def identityAttrs(kind: EntityKind): Seq[String] = kind match {
    case ProcKind => Seq("exe_name", "pid")
    case FileKind => Seq("name")
    case IpKind   => Seq("dstip")
  }

  /** Event type implied by a pattern's object entity kind. */
  def eventTypeOf(kind: EntityKind): String = kind match {
    case ProcKind => "process"
    case FileKind => "file"
    case IpKind   => "network"
  }

  /** The one name resolver: the match column a [[FieldRef]] reads. Aliases
    * (`evt`, `evt1`, …) resolve through [[eventAttrs]]; entity variables
    * resolve through their first pattern occurrence, defaulting the
    * attribute per kind (`p` -> `exe_name`); a bare event attribute
    * (`agentid`) reads the first pattern's event.
    */
  private def resolve(q: SaqlQuery, ref: FieldRef): MatchCol =
    if (q.patterns.exists(_.alias == ref.varName)) {
      val a = ref.attr.getOrElse(fail(s"event alias '${ref.varName}' needs an attribute"))
      MatchCol(ref.varName, eventAttrs.getOrElse(a, fail(s"unknown event attribute '$a'")))
    } else q.varOccurrences.get(ref.varName) match {
      case Some((alias, role, decl) +: _) =>
        MatchCol(alias, entityColumn(decl.kind, role, ref.attr.getOrElse(decl.kind.defaultAttr)))
      case _ if ref.attr.isEmpty && eventAttrs.contains(ref.varName) =>
        MatchCol(q.patterns.head.alias, eventAttrs(ref.varName))
      case _ => fail(s"unknown variable '${ref.varName}'")
    }

  /** Comparison of an event column against a SAQL literal, typed by the
    * column. On a numeric column the literal must be a number, compared as a
    * `Long` when integral (so values above 2^53 stay distinct). On a string
    * column it is a string, even when it reads as a number: LIKE when it
    * contains `%`, equality else, and no order. The test is checked now and
    * applied to the column later ([[Atom.predicate]]).
    */
  def comparison(column: String, op: String, value: String): Column => Column =
    if (numericColumns(column)) {
      val d: Any = value.toLongOption.orElse(value.toDoubleOption)
        .getOrElse(fail(s"'$value' is not a number, and '$column' is a numeric attribute"))
      op match {
        case "="  => _ === d
        case "!=" => _ =!= d
        case "<"  => _ < d
        case ">"  => _ > d
        case "<=" => _ <= d
        case ">=" => _ >= d
        case o    => fail(s"unsupported comparison '$o' on '$column'")
      }
    } else op match {
      case "=" if value.contains("%")  => _.like(value)
      case "!=" if value.contains("%") => !_.like(value)
      case "="                         => _ === value
      case "!="                        => _ =!= value
      case o => fail(s"unsupported comparison '$o' on string attribute '$column'")
    }

  /** A pattern's atoms: its event type, its ops, then its subject's, its
    * object's and the query's global constraints.
    */
  private def atoms(q: SaqlQuery, p: EventPattern): Seq[Atom] = {
    // Merge constraints from every occurrence of the same variable: re-used
    // variables (`f1` in two patterns) constrain all their occurrences.
    def predsFor(decl: EntityDecl, role: String): Seq[Atom] =
      q.varOccurrences.get(decl.varName)
        .map(_.flatMap(_._3.preds).distinct).getOrElse(decl.preds)
        .map(ap => Atom(entityColumn(decl.kind, role, ap.attr), ap.op, ap.value))
    val globalC = q.globals.map { g =>
      val c = eventAttrs.get(g.attr).orElse(SystemEvent.columns.find(_ == g.attr))
        .getOrElse(fail(s"unknown global attribute '${g.attr}'"))
      Atom(c, g.op, g.value)
    }
    (Seq(Atom("event_type", "=", eventTypeOf(p.obj.kind)),
         Atom("op", "in", p.ops.distinct.sorted.mkString(","))) ++
      predsFor(p.subj, "subj") ++ predsFor(p.obj, "obj") ++ globalC).distinct
  }

  /** The query's patterns in chain order (the `with` chain when it names
    * every pattern, else declaration order), each with the condition that
    * joins it to the ones before it: shared-variable identity equalities
    * plus the temporal order of adjacent chain elements.
    */
  private def chain(q: SaqlQuery): Seq[PatternPlan] = {
    val order: Seq[EventPattern] = q.temporal match {
      case Some(c) if c.toSet == q.patterns.map(_.alias).toSet =>
        c.map(a => q.patterns.find(_.alias == a).get)
      case _ => q.patterns
    }
    val occ = q.varOccurrences
    val chainPairs: Seq[(String, String)] =
      q.temporal.map(c => c.zip(c.tail)).getOrElse(Nil)
    def varCol(alias: String, role: String, kind: EntityKind, attr: String): MatchCol =
      MatchCol(alias, entityColumn(kind, role, attr))
    order.zipWithIndex.map { case (p, i) =>
      val joined = order.take(i).map(_.alias).toSet
      val varConds = for {
        (_, occs) <- occ.toSeq
        (aR, roleR, declR) <- occs if aR == p.alias
        (aL, roleL, declL) <- occs if joined.contains(aL)
        idAttr <- identityAttrs(declR.kind)
      } yield varCol(aL, roleL, declL.kind, idAttr) -> varCol(aR, roleR, declR.kind, idAttr)
      val tsConds = chainPairs.collect {
        case (a, b) if (a == p.alias && joined(b)) || (b == p.alias && joined(a)) =>
          MatchCol(a, "ts") -> MatchCol(b, "ts")
      }
      PatternPlan(p.alias, atoms(q, p), varConds, tsConds)
    }
  }

  /** Every leaf of an expression tree. */
  private def leaves(e: Expr): Seq[Expr] = e match {
    case Bin(_, l, r) => leaves(l) ++ leaves(r)
    case SetCard(x)   => leaves(x)
    case leaf         => Seq(leaf)
  }

  /** Compile a parsed query into its [[QueryPlan]]. Pure: it reads no data
    * and starts no Spark job, so every name or argument error surfaces
    * here, as an `IllegalArgumentException`, before execution begins. A
    * `#time` the plan would ignore is such an error: one on a rule query,
    * and a second, different one on a stateful query.
    */
  def compile(q: SaqlQuery): QueryPlan = {
    q.varOccurrences.keys.foreach(q.kindOf) // one entity kind per variable
    val windows = q.patterns.flatMap(_.window).distinct
    if (q.modelType == RuleModel) {
      if (windows.nonEmpty) fail(s"query '${q.name}': a rule query takes no #time window")
      val returns = q.ret.items.map {
        case AttrRef(ref) => ref.colName -> resolve(q, ref)
        case other =>
          fail(s"rule-based return items must be entity/event attributes, got $other")
      }
      RulePlan(q, chain(q), returns)
    } else {
      val sb = q.state.getOrElse(
        fail(s"query '${q.name}': stateful model needs a state block"))
      val window = q.window.getOrElse(
        fail(s"stateful query '${q.name}' needs #time(...)"))
      if (windows.size > 1) fail(s"query '${q.name}': its patterns declare different #time windows")
      val keys = sb.groupBy.map(r => r.colName -> resolve(q, r).column)
      if (sb.defs.isEmpty) fail(s"query '${q.name}': state block '${sb.name}' defines no field")
      val aggs = sb.defs.map { d =>
        if (!StateMaintainer.aggregates.contains(d.func))
          fail(s"unknown aggregate '${d.func}'")
        val c = resolve(q, d.arg).column
        if (!Set("count", "set")(d.func) && !numericColumns(c))
          fail(s"query '${q.name}': ${d.func}(${d.arg}) needs a numeric attribute")
        StateAgg(d.name, d.func, c)
      }
      val fields = sb.defs.map(_.name).toSet
      keys.map(_._1).find(fields).foreach(k =>
        fail(s"query '${q.name}': state field '$k' has the name of a group-by key"))
      val exprs = q.alert.toSeq ++ q.ret.items ++
        q.invariant.toSeq.flatMap(ib => Seq(ib.init, ib.update))
      val keyIndex = exprs.flatMap(leaves).flatMap {
        case AttrRef(ref) =>
          val i = keys.map(_._2).indexOf(resolve(q, ref).column)
          if (i < 0) fail(s"'$ref' is not a group-by key of query '${q.name}'")
          Some(ref -> i)
        case StateRef(s, _, f) if s != sb.name || !fields(f) =>
          fail(s"unknown state field '$s.$f' in query '${q.name}'")
        case StateRef(s, idx, f) if idx >= sb.history =>
          fail(s"'$s[$idx].$f' is beyond the state history of ${sb.history} in query '${q.name}'")
        case InvRef(n) if !q.invariant.exists(_.varName == n) =>
          fail(s"unknown invariant variable '$n' in query '${q.name}'")
        case _ => None
      }.toMap
      val cluster = q.cluster.map { cb =>
        if (cb.distance != "ed")
          fail(s"query '${q.name}': unsupported cluster distance '${cb.distance}' (only \"ed\")")
        if (cb.method != "DBSCAN")
          fail(s"query '${q.name}': unsupported cluster method '${cb.method}' (only DBSCAN)")
        if (cb.args.size < 2)
          fail(s"query '${q.name}': DBSCAN needs (eps, minPts) args, got ${cb.args}")
        ClusterPlan(cb.points.map { f =>
          val field = f.attr.getOrElse(f.varName)
          if (fields(field)) field
          else fail(s"query '${q.name}': unknown state field '$field' in cluster points")
        }, cb.args(0), cb.args(1).toInt)
      }
      StatePlan(q, q.patterns.map(atoms(q, _)), window, keys, aggs, keyIndex, cluster)
    }
  }
}
