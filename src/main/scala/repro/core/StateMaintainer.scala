package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.saql.Ast.WindowSpec

/** The state maintainer: computes each sliding window's states from the
  * matched events, via Spark `groupBy(win, keys).agg(...)` — every
  * aggregate runs through Catalyst and is oracle-checkable against DuckDB.
  *
  * Window `i` of a `WindowSpec(len, slide)` covers `[i*slide, i*slide+len)`.
  * With `slide == len` (the paper's `#time(10 min)`) windows tumble; with
  * `slide < len` events are exploded into every window containing them.
  */
object StateMaintainer {

  /** The SAQL state aggregates, by function name. */
  val aggregates: Map[String, Column => Column] = Map(
    "avg"   -> (c => avg(c)),
    "sum"   -> (c => sum(c).cast(DoubleType)),
    "count" -> (c => count(c).cast(DoubleType)),
    "max"   -> (c => max(c).cast(DoubleType)),
    "min"   -> (c => min(c).cast(DoubleType)),
    "set"   -> (c => collect_set(c.cast(StringType))))

  /** Add the window-index column `__win`; explodes for overlapping windows. */
  def assignWindows(events: DataFrame, w: WindowSpec): DataFrame = {
    if (w.slideMs == w.lengthMs)
      events.withColumn("__win", floor(col("ts") / w.slideMs))
    else {
      val iMax = floor(col("ts") / w.slideMs)
      val iMin = greatest(lit(0L),
        floor((col("ts") - w.lengthMs) / w.slideMs) + 1)
      events.withColumn("__win", explode(sequence(iMin, iMax)))
    }
  }

  /** Events any of the plans could match: the OR of their candidate
    * predicates. One plan feeds its own state; a scheduler group's plans
    * share one filtered copy of the stream.
    */
  def matchedEvents(events: DataFrame, plans: QueryPlan*): DataFrame =
    events.filter(plans.map(_.candidate).reduce(_ || _))

  /** Group `events` by `window` and the plan's keys and compute its state
    * fields; shared by the batch and the streaming state paths.
    */
  def aggregate(events: DataFrame, window: Column, s: StatePlan): DataFrame = {
    val keyCols = s.keys.map { case (label, c) => col(c).as(label) }
    val aggs = s.aggs.map(a => aggregates(a.func)(col(a.column)).as(a.name))
    events.groupBy(window +: keyCols: _*).agg(aggs.head, aggs.tail: _*)
  }

  /** Per-window, per-group state DataFrame:
    * `__win`, group-key columns (named by their SAQL ref), state columns.
    */
  def states(events: DataFrame, s: StatePlan): DataFrame =
    aggregate(assignWindows(matchedEvents(events, s), s.window), col("__win"), s)

  /** Driver-side snapshot of one group's state in one window. */
  final case class StateRow(win: Long, key: Seq[String], vals: Map[String, Eval.Value])

  /** Collect the state DataFrame into window-ordered driver rows:
    * (windowIndex -> rows), windows sorted ascending. Group keys are
    * stringified; values become [[Eval.Value]]s.
    */
  def collectStates(statesDf: DataFrame, s: StatePlan): Seq[(Long, Seq[StateRow])] = {
    val rows = statesDf.collect().toSeq.map { r =>
      val win = r.getAs[Long]("__win")
      val key = s.keys.map(k => String.valueOf(r.getAs[Any](k._1)))
      val vals: Map[String, Eval.Value] = s.aggs.map { a =>
        val v: Eval.Value = a.func match {
          case "set" =>
            Eval.SetV(r.getAs[scala.collection.Seq[String]](a.name).toSet)
          case _ =>
            val x = r.getAs[Any](a.name)
            Eval.NumV(x match {
              case null      => 0.0
              case n: Number => n.doubleValue()
              case o         => o.toString.toDouble
            })
        }
        a.name -> v
      }.toMap
      StateRow(win, key, vals)
    }
    rows.groupBy(_.win).toSeq.sortBy(_._1)
  }
}
