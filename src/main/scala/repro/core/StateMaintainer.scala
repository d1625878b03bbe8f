package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.saql.Ast.WindowSpec

/** The state maintainer: computes each sliding window's states from the
  * matched events, via Spark `groupBy(win, keys).agg(...)` — every
  * aggregate runs through Catalyst and is oracle-checkable against DuckDB.
  *
  * Window `i` of a `WindowSpec(len, slide)` covers `[i*slide, i*slide+len)`.
  * With `slide == len` (the paper's `#time(10 min)`) windows tumble; with
  * `slide < len` events are exploded into every window containing them;
  * with `slide > len` an event in a gap between windows is in none.
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
      // `sequence` counts down when iMin > iMax; a null array explodes to no row.
      events.withColumn("__win", explode(when(iMin <= iMax, sequence(iMin, iMax))))
    }
  }

  /** The windows [[assignWindows]] puts an event at `ts` in, ascending. */
  def windowsOf(ts: Long, w: WindowSpec): Seq[Long] = {
    val last = math.floor(ts.toDouble / w.slideMs).toLong
    if (w.slideMs == w.lengthMs) Seq(last)
    else math.max(0L, math.floor((ts - w.lengthMs).toDouble / w.slideMs).toLong + 1) to last
  }

  /** Per-window, per-group states of a plan over the events one of its
    * patterns matches: `__win`, group-key columns, then its state fields.
    */
  def states(events: DataFrame, plan: StatePlan): DataFrame = {
    val keyCols = plan.keys.map { case (label, c) => col(c).as(label) }
    val aggs = plan.aggs.map(a => aggregates(a.func)(col(a.column)).as(a.name))
    assignWindows(events.filter(Atom.any(plan.conjunctions)), plan.window)
      .groupBy(col("__win") +: keyCols: _*).agg(aggs.head, aggs.tail: _*)
  }

  /** One window's states on the driver: group key -> state field -> value. */
  type WindowStates = Map[Seq[String], Map[String, Eval.Value]]

  /** Collect a [[states]] DataFrame into the plan's states per window
    * (windows ascending). Group keys are stringified; values become
    * [[Eval.Value]]s.
    */
  def collectStates(statesDf: DataFrame, plan: StatePlan): Seq[(Long, WindowStates)] = {
    val keys = plan.keys.map(_._1)
    def fields(r: Row): Map[String, Eval.Value] =
      plan.aggs.map(a => a.name -> value(a.func, r.getAs[Any](a.name))).toMap
    statesDf.collect().toSeq.groupBy(_.getAs[Long]("__win")).toSeq
      .sortBy(_._1).map { case (win, group) =>
        win -> group.map(r => keys.map(k => String.valueOf(r.getAs[Any](k))) -> fields(r)).toMap
      }
  }

  /** A collected aggregate: a string set, or a number (null is 0). */
  private def value(func: String, x: Any): Eval.Value =
    if (func == "set") Eval.SetV(x.asInstanceOf[scala.collection.Seq[String]].toSet)
    else Eval.NumV(if (x == null) 0.0 else x.asInstanceOf[Number].doubleValue)
}
