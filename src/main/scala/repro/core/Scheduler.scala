package repro.core

import java.lang.ref.SoftReference
import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.{CollectMetrics, LogicalPlan}
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.apache.spark.sql.functions.{count, lit}
import org.apache.spark.sql.streaming.StreamingQuery
import repro.saql.Ast._

/** The concurrent query scheduler with the paper's master-dependent-query
  * scheme.
  *
  * One run makes one copy of the stream: the events any query could match
  * (the OR of every plan's patterns, factored on the tests they share).
  * That copy is the master's output, one Spark job, laid out by
  * [[Dependents.copy]]: the columns the dependents read and one bit per
  * distinct atom of the patterns. Every query is a dependent that tags its
  * rows of the copy on the driver from those bits — rule patterns as a
  * join, stateful queries as window accumulators — so the stream is scanned
  * once however many queries run. The scheduler keeps the copy the last
  * run planned: a run with the same plans over the same input, cached the
  * same way, in the same session with the same settings, only runs its job.
  * On a stream, [[runStream]] makes the copy of each micro-batch the same
  * way and feeds it to the same dependents; each batch is a new
  * `DataFrame`, so each batch's copy is planned afresh.
  *
  * [[ExecStats]] counts what the paper's scheme optimises: stream rows
  * ingested (one full-scan copy per run vs per query) and rows copied
  * onward to the queries.
  */
object Scheduler {

  /** Compile the queries; names must be distinct, as alerts are keyed by name. */
  private def compile(queries: Seq[SaqlQuery]): Seq[QueryPlan] = {
    val names = queries.map(_.name)
    require(names.distinct == names, s"duplicate query names: ${names.diff(names.distinct).distinct.mkString(", ")}")
    queries.map(Columns.compile)
  }

  /** Execution statistics for the T3 comparison. */
  final case class ExecStats(
      queries: Int,
      /** Stream copies made: one per run, or one per query independently. */
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

  /** A planned master copy and what it was planned for: the plans it
    * serves, its session and that session's settings, and its input as the
    * cache manager resolved it, with the cached relations that input reads.
    * A re-cached input resolves to an equal relation with a new builder, so
    * the builders are compared by identity.
    */
  private final class Planned(val plans: Seq[QueryPlan], val copy: DataFrame) {
    private val session = copy.queryExecution.sparkSession
    private val conf = session.sessionState.conf.getAllConfs
    // Read after the collect that planned the copy, so it is the input as it resolved then.
    private lazy val input = copy.queryExecution.withCachedData.collectFirst { case c: CollectMetrics => c.child }.get
    private lazy val cached = builders(input)
    private def builders(plan: LogicalPlan): Seq[AnyRef] = plan.collect { case r: InMemoryRelation => r.cacheBuilder }

    /** Whether this copy is the one a fresh plan of `plans` over `events`
      * would make now. The input is resolved only once the plans match.
      */
    def serves(plans: Seq[QueryPlan], events: DataFrame): Boolean = plans == this.plans && {
      val qe = events.queryExecution
      qe.sparkSession.eq(session) && session.sessionState.conf.getAllConfs == conf && {
        val now = session.sessionState.executePlan(qe.analyzed).withCachedData
        now == input && builders(now).corresponds(cached)(_ eq _)
      }
    }
  }

  /** The copy the last run collected. A run takes it out, so no two runs
    * share a `Dataset`, and puts it back only after a successful collect.
    * It is held softly: it keeps its plan, generated code and session alive
    * until the next run replaces it, or until the JVM reclaims it when
    * memory runs short or it has long gone unused.
    */
  private val last = new AtomicReference[SoftReference[Planned]]()

  /** SAQL arm: one Spark job makes the master's copy of the stream for all
    * queries ([[Dependents.copy]]), and every query is a dependent evaluated
    * on the driver over it. The copy is collected once, and the same job
    * counts the stream. A run with the last run's plans, over an input that
    * resolves to the same cache-substituted plan in the same session with
    * the same settings, collects the last run's copy again: Spark reuses its
    * analysis, physical plan and generated code, and runs only the job. This
    * pays off only for a caller that repeats one query set over one
    * `DataFrame`; any other run plans its copy as if nothing were kept.
    */
  def runMasterDependent(events: DataFrame, queries: Seq[SaqlQuery]): ScheduledRun = {
    val t0 = System.nanoTime()
    val plans = compile(queries)
    val dependents = new Dependents(plans)
    val planned = Option(last.getAndSet(null)).flatMap(r => Option(r.get)).filter(_.serves(plans, events))
      .getOrElse(new Planned(plans, dependents.copy(events.observe("__input", count(lit(1)).as("n")))))
    val copy = planned.copy
    val rows = copy.collect().toSeq
    // Without plans the filter is `false`: Spark reads no row, and observes none.
    val n = copy.queryExecution.observedMetrics.get("__input").fold(0L)(_.getLong(0))
    last.set(new SoftReference(planned))
    val alerts = (dependents.feed(rows) ++ dependents.flush()).groupBy(_.query)
    // One full scan fills the copy; with several queries, each reads it.
    val copied = n + (if (plans.size > 1) rows.size.toLong * plans.size else 0L)
    val wall = (System.nanoTime() - t0) / 1_000_000
    ScheduledRun(plans.map(p => p.name -> alerts.getOrElse(p.name, Nil)).toMap,
      ExecStats(queries.size, 1, n, copied, wall))
  }

  /** Streaming arm: the master copy of each micro-batch of `stream` is one
    * collected Spark job, fed to one [[Dependents]], which builds the copy's
    * columns once for the life of the stream; `emit` gets the alerts that
    * became final in the batch, so a window still open when the stream stops
    * emits nothing.
    */
  def runStream(stream: DataFrame, queries: Seq[SaqlQuery])(emit: Seq[AlertRecord] => Unit): StreamingQuery = {
    val dependents = new Dependents(compile(queries))
    val onBatch: (DataFrame, Long) => Unit = { (batch, _) =>
      val now = dependents.feed(dependents.copy(batch).collect().toSeq)
      if (now.nonEmpty) emit(now)
    }
    stream.writeStream.foreachBatch(onBatch).start()
  }
}
