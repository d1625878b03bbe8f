package repro.core

import org.apache.spark.sql.DataFrame
import repro.saql.Ast._

/** The concurrent query scheduler with the paper's master-dependent-query
  * scheme.
  *
  * Concurrent queries are divided into groups by semantic compatibility
  * (same pattern shape: event types, operations, window). Each group gets
  * a master whose match set covers every member — the member whose
  * constraints subsume all others', or, failing a syntactic subsumption
  * witness, a synthesized union-of-constraints master. Only masters touch
  * the stream; dependents execute over the master's intermediate matched
  * events, so one copy of the stream data serves the whole group.
  *
  * [[ExecStats]] counts what the paper's scheme optimises: stream rows
  * ingested (one full-scan copy per master vs per query) and rows copied
  * onward to dependent queries.
  */
object Scheduler {

  /** Structural compatibility key: queries sharing it can share a stream
    * copy. Multi-pattern (sequence) queries only group with identically
    * shaped sequences.
    */
  final case class Signature(shape: Seq[(String, Seq[String])],
                             window: Option[WindowSpec])

  def signature(q: SaqlQuery): Signature = Signature(
    q.patterns.map(p => (Columns.eventTypeOf(p.obj.kind), p.ops.sorted)),
    q.window)

  /** All attribute predicates of a query, as comparable (attrPath, op,
    * value) triples, pattern position included.
    */
  private def predTriples(q: SaqlQuery): Set[(Int, String, String, String, String)] =
    (q.patterns.zipWithIndex.flatMap { case (p, i) =>
      p.subj.preds.map(ap => (i, "subj", ap.attr, ap.op, ap.value)) ++
        p.obj.preds.map(ap => (i, "obj", ap.attr, ap.op, ap.value))
    } ++ q.globals.map(g => (-1, "global", g.attr, g.op, g.value))).toSet

  /** Syntactic subsumption: A's matches cover B's if every constraint of A
    * also constrains B (B is at least as restrictive).
    */
  def subsumes(a: SaqlQuery, b: SaqlQuery): Boolean =
    signature(a) == signature(b) && predTriples(a).subsetOf(predTriples(b))

  /** One scheduled group of compiled members: the member master (if one
    * subsumes all) or none, in which case the union of every member's
    * candidates stands in for it.
    */
  final case class Group(members: Seq[QueryPlan], master: Option[QueryPlan])

  /** Compile the queries; names must be distinct, as alerts are keyed by name. */
  private def compile(queries: Seq[SaqlQuery]): Seq[QueryPlan] = {
    val names = queries.map(_.name)
    require(names.distinct == names, s"duplicate query names: ${names.diff(names.distinct).distinct.mkString(", ")}")
    queries.map(Columns.compile)
  }

  /** Compile the queries, group them by compatibility and elect masters. */
  def group(queries: Seq[SaqlQuery]): Seq[Group] =
    compile(queries).groupBy(p => signature(p.query)).toSeq
      .sortBy(_._2.head.name).map { case (_, members) =>
        val master = members.find(m => members.forall(o => subsumes(m.query, o.query)))
        Group(members, master)
      }

  /** Execution statistics for the T3 comparison. */
  final case class ExecStats(
      queries: Int,
      groups: Int,
      /** Full stream scans performed (stream rows x scan count). */
      rowsScanned: Long,
      /** Rows materialised into per-query buffers (the "data copies"). */
      rowsCopied: Long,
      wallMs: Long)

  final case class ScheduledRun(alerts: Map[String, Seq[AlertRecord]],
                                stats: ExecStats)

  /** Baseline arm: every query ingests its own copy of the full stream —
    * how un-shared CEP engines (Siddhi/Esper/Flink jobs) execute
    * concurrent queries.
    */
  def runIndependent(events: DataFrame, queries: Seq[SaqlQuery]): ScheduledRun = {
    val t0 = System.nanoTime()
    val plans = compile(queries)
    val n  = events.count()
    val alerts = plans.map(p => p.name -> QueryEngine.run(events, p)).toMap
    val wall = (System.nanoTime() - t0) / 1_000_000
    ScheduledRun(alerts,
      ExecStats(queries.size, queries.size, n * queries.size,
                n * queries.size, wall))
  }

  /** SAQL arm: one stream copy per group; dependents read the master's
    * (much smaller) matched-event output. The group's stateful members
    * that share keys run as one state aggregation over that copy, each
    * re-applying its own (stricter) predicates as conditional aggregates.
    */
  def runMasterDependent(events: DataFrame, queries: Seq[SaqlQuery]): ScheduledRun = {
    val t0 = System.nanoTime()
    val groups = group(queries)
    val n  = events.count()
    var scanned = 0L
    var copied  = 0L
    val alerts = Map.newBuilder[String, Seq[AlertRecord]]
    for (g <- groups) {
      // Every event a member's patterns could match.
      val masterDf = StateMaintainer.matchedEvents(events, g.master.fold(g.members)(Seq(_)): _*).cache()
      val m = masterDf.count()
      scanned += n         // one full scan feeds the whole group
      copied += n          // the group's single stream copy
      if (g.members.size > 1) copied += m * g.members.size // each member reads the master output
      val (states, rules) = g.members.partitionMap {
        case s: StatePlan => Left(s)
        case r: RulePlan  => Right(r)
      }
      rules.foreach(r => alerts += r.name -> QueryEngine.run(masterDf, r))
      for (split <- states.groupBy(s => (s.window, s.keys.map(_._2))).values)
        alerts ++= split.map(_.name).zip(QueryEngine.runStates(masterDf, split))
      masterDf.unpersist()
    }
    val wall = (System.nanoTime() - t0) / 1_000_000
    ScheduledRun(alerts.result(),
      ExecStats(queries.size, groups.size, scanned, copied, wall))
  }
}
