package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.saql.Ast.WindowSpec

/** The state maintainer: computes each sliding window's states from the
  * matched events, via Spark `groupBy(win, keys).agg(...)` — every
  * aggregate runs through Catalyst and is oracle-checkable against DuckDB.
  *
  * One aggregation serves several plans (members) that share a window and
  * group keys, as the scheduler's dependents do: each member's candidate
  * becomes a boolean tag column, its aggregates read their column only
  * where its tag holds, and `count_if(tag)` counts its events per group, so
  * a group with no events of the member is no state of the member.
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
    * predicates (none without plans). One plan feeds its own state; the
    * scheduler's plans share one filtered copy of the stream.
    */
  def matchedEvents(events: DataFrame, plans: QueryPlan*): DataFrame =
    events.filter(plans.map(_.candidate).reduceOption(_ || _).getOrElse(lit(false)))

  /** Member `i`'s tag column, its event count per group, and the column of
    * its field `f`.
    */
  private def tag(i: Int): String = s"__t$i"
  private def presence(i: Int): String = s"__n$i"
  private def field(i: Int, f: String): String = s"m${i}_$f"

  /** The members' matched events, each with member `i`'s tag: does its
    * candidate hold? A lone member's tag is `true`, since the filter
    * already applied its candidate.
    */
  def tagged(events: DataFrame, members: Seq[StatePlan]): DataFrame =
    matchedEvents(events, members: _*).select(col("*") +: members.zipWithIndex.map {
      case (m, i) => (if (members.size == 1) lit(true) else m.candidate).as(tag(i))
    }: _*)

  /** Group tagged events by `window` and the members' shared keys (named
    * after the first member's) and compute each member's presence count
    * and fields; shared by the batch and the streaming state paths.
    */
  def aggregate(events: DataFrame, window: Column, members: Seq[StatePlan]): DataFrame = {
    val keyCols = members.head.keys.map { case (label, c) => col(c).as(label) }
    val aggs = members.zipWithIndex.flatMap { case (m, i) =>
      val t = col(tag(i))
      count_if(t).as(presence(i)) +: m.aggs.map(a =>
        aggregates(a.func)(when(t, col(a.column))).as(field(i, a.name)))
    }
    events.groupBy(window +: keyCols: _*).agg(aggs.head, aggs.tail: _*)
  }

  /** Per-window, per-group states of members sharing a window and keys:
    * `__win`, group-key columns, then per member its presence count and
    * state fields.
    */
  def states(events: DataFrame, members: Seq[StatePlan]): DataFrame =
    aggregate(assignWindows(tagged(events, members), members.head.window), col("__win"), members)

  /** One window's states on the driver: group key -> state field -> value. */
  type WindowStates = Map[Seq[String], Map[String, Eval.Value]]

  /** Collect a [[states]] DataFrame once and split it into each member's
    * states per window (windows ascending), keeping only the groups the
    * member has events in. Group keys are stringified; values become
    * [[Eval.Value]]s.
    */
  def collectStates(statesDf: DataFrame, members: Seq[StatePlan]): Seq[Seq[(Long, WindowStates)]] = {
    val rows = statesDf.collect().toSeq
    val keys = members.head.keys.map(_._1)
    members.zipWithIndex.map { case (s, i) =>
      def fields(r: Row): Map[String, Eval.Value] =
        s.aggs.map(a => a.name -> value(a.func, r.getAs[Any](field(i, a.name)))).toMap
      rows.filter(_.getAs[Long](presence(i)) > 0).groupBy(_.getAs[Long]("__win")).toSeq
        .sortBy(_._1).map { case (win, group) =>
          win -> group.map(r => keys.map(k => String.valueOf(r.getAs[Any](k))) -> fields(r)).toMap
        }
    }
  }

  /** A collected aggregate: a string set, or a number (null is 0). */
  private def value(func: String, x: Any): Eval.Value =
    if (func == "set") Eval.SetV(x.asInstanceOf[scala.collection.Seq[String]].toSet)
    else Eval.NumV(if (x == null) 0.0 else x.asInstanceOf[Number].doubleValue)
}
