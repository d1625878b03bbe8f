package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{Column, Row}
import org.apache.spark.sql.functions.{coalesce, lit}
import Eval.{NumV, SetV, Value}

/** The scheduler's dependents, evaluated on the driver over the master's
  * collected copy of the stream.
  *
  * The master tags every copied event with each predicate a dependent
  * tests: one tag per rule pattern, one per stateful plan's candidate. So
  * Catalyst evaluates every predicate once, and nothing here re-implements
  * `LIKE`, numeric comparison or globals. On the driver:
  *   - a rule plan is a left-deep join of its patterns' tagged events in
  *     chain order, hashed on the identity equalities and filtered on the
  *     `ts` orders: the matches of [[EventMatcher.matches]];
  *   - a stateful plan folds its tagged events into per-(window, group)
  *     accumulators with Spark's aggregate semantics, and
  *     [[QueryEngine.evaluate]] runs over the windows.
  */
object Dependents {

  /** The predicates a plan's tags carry: its patterns' in chain order, or its candidate. */
  private def predicates(plan: QueryPlan): Seq[Column] = plan match {
    case r: RulePlan  => r.patterns.map(_.predicate)
    case s: StatePlan => Seq(s.candidate)
  }

  private def tag(i: Int): String = s"__tag$i"

  /** The plans' tag columns, in plan order; a null predicate tags false. */
  def tags(plans: Seq[QueryPlan]): Seq[Column] =
    plans.flatMap(predicates).zipWithIndex.map { case (p, i) => coalesce(p, lit(false)).as(tag(i)) }

  /** Every plan's alerts from the copy's rows, whose fields `columns` names:
    * the plans' reads and their [[tags]].
    */
  def alerts(plans: Seq[QueryPlan], columns: Seq[String], rows: Seq[Row]): Map[String, Seq[AlertRecord]] = {
    val at = columns.zipWithIndex.toMap
    plans.zip(plans.scanLeft(0)(_ + predicates(_).size)).map { case (plan, first) =>
      def tagged(k: Int): Seq[Row] = { val t = at(tag(first + k)); rows.filter(_.getBoolean(t)) }
      plan.name -> (plan match {
        case r: RulePlan  => rule(r, r.patterns.indices.map(tagged), at)
        case s: StatePlan => state(s, tagged(0), at)
      })
    }.toMap
  }

  /** A rule plan's alerts from each pattern's tagged rows. A match holds
    * one row per pattern, and `alias__column` reads `column` of the alias's
    * row, as [[EventMatcher.matches]] names the joined columns. As in
    * Spark, null equals nothing, equal times are not in order, a pattern
    * with no condition is a cross join, and without `distinct` every match
    * is an alert.
    */
  private def rule(plan: RulePlan, sides: Seq[Seq[Row]], at: Map[String, Int]): Seq[AlertRecord] = {
    val field = (for ((p, k) <- plan.patterns.zipWithIndex; (c, i) <- at)
      yield s"${p.alias}__$c" -> (k, i)).toMap
    def get(m: Seq[Row], c: String): Any = { val (k, i) = field(c); m(k).get(i) }
    val matches = plan.patterns.zip(sides).foldLeft(Seq(Vector.empty[Row])) {
      case (partial, (p, side)) =>
        val (lefts, rights) = p.equalities.unzip
        val byKey = side.groupBy(r => rights.map(c => r.get(field(c)._2)))
        partial.flatMap { m =>
          val key = lefts.map(get(m, _))
          if (key.contains(null)) Nil
          else byKey.getOrElse(key, Nil).map(m :+ _).filter(n =>
            p.before.forall { case (a, b) => get(n, a).asInstanceOf[Long] < get(n, b).asInstanceOf[Long] })
        }
    }
    val ts = at("ts")
    val found = matches.map(m => plan.returns.map(r => get(m, r._2)) -> m.map(_.getLong(ts)).max)
    // `distinct` keeps the earliest detection of each returned row.
    val kept = if (plan.query.ret.distinct) found.groupMapReduce(_._1)(_._2)(math.min).toSeq else found
    QueryEngine.ordered(kept.map { case (values, t) =>
      AlertRecord(plan.name, -1L, t, plan.returns.map(_._1).zip(values.map(v => String.valueOf(v))).toMap)
    })
  }

  /** A stateful plan's alerts from its tagged rows: a row adds to its
    * group's accumulators in every window [[StateMaintainer.windowsOf]]
    * puts it in, and group keys render as in
    * [[StateMaintainer.collectStates]].
    */
  private def state(plan: StatePlan, rows: Seq[Row], at: Map[String, Int]): Seq[AlertRecord] = {
    val ts = at("ts")
    val keys = plan.keys.map(k => at(k._2))
    val inputs = plan.aggs.map(a => at(a.column))
    val windows = mutable.TreeMap.empty[Long, mutable.HashMap[Seq[String], Seq[Acc]]]
    for (r <- rows; win <- StateMaintainer.windowsOf(r.getLong(ts), plan.window)) {
      val accs = windows.getOrElseUpdate(win, mutable.HashMap.empty)
        .getOrElseUpdate(keys.map(i => String.valueOf(r.get(i))), plan.aggs.map(a => Acc(a.func)))
      for ((acc, i) <- accs.zip(inputs) if !r.isNullAt(i)) acc.add(r.get(i))
    }
    QueryEngine.evaluate(plan, windows.toSeq.map { case (win, groups) =>
      win -> groups.toMap.map { case (key, accs) => key -> plan.aggs.map(_.name).zip(accs.map(_.value)).toMap }
    })
  }

  /** A running state aggregate over non-null inputs, with the values of
    * [[StateMaintainer.aggregates]]: an empty one reads 0, and an integral
    * sum is exact, so it overflows as Spark's ANSI `sum` does.
    */
  private abstract class Acc {
    def add(x: Any): Unit
    def value: Value
  }

  private object Acc {
    def apply(func: String): Acc = func match {
      case "avg" => new Acc {
        private var sum = 0.0
        private var n = 0L
        def add(x: Any): Unit = { sum += x.asInstanceOf[Long]; n += 1 }
        def value: Value = NumV(if (n == 0) 0.0 else sum / n)
      }
      case "sum" => new Acc {
        private var sum = 0L
        def add(x: Any): Unit = sum = Math.addExact(sum, x.asInstanceOf[Long])
        def value: Value = NumV(sum.toDouble)
      }
      case "count" => new Acc {
        private var n = 0L
        def add(x: Any): Unit = n += 1
        def value: Value = NumV(n.toDouble)
      }
      case "max" | "min" => new Acc {
        private var best: Option[Long] = None
        def add(x: Any): Unit = {
          val v = x.asInstanceOf[Long]
          best = Some(best.fold(v)(b => if (func == "max") math.max(b, v) else math.min(b, v)))
        }
        def value: Value = NumV(best.fold(0.0)(_.toDouble))
      }
      case "set" => new Acc {
        private val set = mutable.Set.empty[String]
        def add(x: Any): Unit = set += String.valueOf(x)
        def value: Value = SetV(set.toSet)
      }
    }
  }
}
