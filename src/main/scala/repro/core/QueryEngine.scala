package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable
import repro.cluster.DBSCAN
import repro.saql.Ast._
import Eval._

/** One detection alert, as the paper's error/alert reporter emits them. */
final case class AlertRecord(
    query: String,
    /** Window index (-1 for rule-based matches, which are not windowed). */
    win: Long,
    /** Detection time: last matched event (rule) or window end (stateful). */
    ts: Long,
    /** The query's `return` items, rendered. */
    values: Map[String, String],
) {
  override def toString: String =
    s"[$query] ts=$ts win=$win ${values.toSeq.sortBy(_._1).map { case (k, v) => s"$k=$v" }.mkString(", ")}"
}

/** The SAQL anomaly query engine.
  *
  * Compiles a parsed query ([[Columns.compile]]) and dispatches the plan
  * to its anomaly-model evaluator:
  *   - rule-based       -> multi-event matcher (Catalyst joins);
  *   - time-series      -> window states + `ss[k]` history ring + alert expr;
  *   - invariant-based  -> train on the first N windows, then detect;
  *   - outlier-based    -> per-window DBSCAN over group states.
  *
  * Runs over a bounded event DataFrame (the replayer's batch view of the
  * stream), each query as its own Spark jobs: the Catalyst arm, and the
  * independent reference for the scheduler's [[Dependents]], which match
  * and aggregate on the driver and share [[evaluator]] with it, in batch
  * and on a stream ([[Scheduler.runStream]]).
  */
object QueryEngine {

  def run(events: DataFrame, q: SaqlQuery): Seq[AlertRecord] =
    run(events, Columns.compile(q))

  def run(events: DataFrame, plan: QueryPlan): Seq[AlertRecord] = plan match {
    case r: RulePlan  => runRule(events, r)
    case s: StatePlan =>
      evaluator(s)(StateMaintainer.collectStates(StateMaintainer.states(events, s), s))
  }

  /** Alerts in detection order: by time, ties by their rendered values. */
  private[core] def ordered(alerts: Seq[AlertRecord]): Seq[AlertRecord] =
    alerts.sortBy(a => (a.ts, a.values.toSeq.sortBy(_._1).mkString))

  // ------------------------------------------------------------------ rule

  private def runRule(events: DataFrame, plan: RulePlan): Seq[AlertRecord] = {
    val projected = EventMatcher.project(EventMatcher.matches(events, plan), plan)
    val names = plan.returns.map(_._1)
    ordered(projected.collect().toSeq.map { r =>
      val ts = r.getAs[Long]("__alert_ts")
      val vals = names.map(n => n -> String.valueOf(r.getAs[Any](n))).toMap
      AlertRecord(plan.name, -1L, ts, vals)
    })
  }

  // -------------------------------------------------------------- stateful

  /** A stateful plan's evaluator: alert, invariant and DBSCAN evaluation
    * on the driver. Each call takes the next windows' states, ascending and
    * after those of earlier calls, and returns their alerts; the `ss[k]`
    * history, the invariants and the first window carry over between calls.
    */
  private[core] def evaluator(plan: StatePlan): Seq[(Long, StateMaintainer.WindowStates)] => Seq[AlertRecord] = {
    val q = plan.query
    val w = plan.window
    val setFields = plan.aggs.filter(_.func == "set").map(_.name).toSet
    def defaultVal(field: String): Value =
      if (setFields(field)) SetV(Set.empty) else NumV(0.0)

    // The `history` most recent windows' states.
    val depth = q.state.get.history
    var recent = Map.empty[Long, StateMaintainer.WindowStates]
    // Invariant variable per group.
    val inv = mutable.HashMap.empty[Seq[String], Value]
    val trainTotal = q.invariant.map(_.trainWindows).getOrElse(0)
    // Training covers the first `trainWindows` window *slots* of the
    // stream ("uses the first ten windows to train"), anchored at the
    // first window that carries any state.
    var firstWin = Option.empty[Long]

    byWindow => {
      val alerts = Vector.newBuilder[AlertRecord]

      for ((win, states) <- byWindow) {
        recent = recent.filter(_._1 > win - depth) + (win -> states)
        if (firstWin.isEmpty) firstWin = Some(win)
        val training = q.invariant.isDefined && (win - firstWin.get) < trainTotal

        // DBSCAN over this window's group points, if the query clusters.
        val outlierOf: Map[Seq[String], Boolean] = plan.cluster match {
          case Some(c) =>
            val keys = states.keys.toIndexedSeq
            val points = keys.map(k => c.fields.map(f => states(k)(f).asNum).toArray)
            keys.zip(DBSCAN.outliers(points, c.eps, c.minPts)).toMap
          case None => Map.empty
        }

        for (key <- states.keys) {
          val env = new Env {
            def stateRef(idx: Int, field: String): Value =
              recent.get(win - idx).flatMap(_.get(key))
                .flatMap(_.get(field)).getOrElse(defaultVal(field))
            def attrRef(ref: FieldRef): Value = StrV(key(plan.keyIndex(ref)))
            def invRef(name: String): Value =
              inv.getOrElseUpdate(key, Eval.eval(q.invariant.get.init, this))
            def clusterOutlier: Boolean = outlierOf.getOrElse(key, false)
          }

          if (training) {
            // Invariant update: a = eval(update) with the current `a` bound.
            val ib = q.invariant.get
            inv(key) = Eval.eval(ib.update, env)
          } else {
            val fire = q.alert.forall(a => Eval.eval(a, env).asBool)
            if (fire) {
              val vals = q.ret.items.map(item =>
                Eval.label(item) -> Eval.eval(item, env).render).toMap
              alerts += AlertRecord(plan.name, win, win * w.slideMs + w.lengthMs, vals)
            }
            // Online invariants keep learning after training (each detected
            // novelty is absorbed once reported); offline ones stay frozen.
            q.invariant.filterNot(_.offline)
              .foreach(ib => inv(key) = Eval.eval(ib.update, env))
          }
        }
      }
      ordered(alerts.result())
    }
  }
}
