package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The multi-event matcher: matches the stream against the event patterns
  * of a compiled rule query, honouring temporal relationships
  * (`with evt1 -> evt2`) and implicit attribute relationships (the same
  * variable re-used across patterns joins on the entity's identity
  * attributes).
  *
  * Each pattern is a Catalyst predicate; multi-pattern sequences become
  * inner joins on the conditions [[Columns.compile]] derived, which carry
  * both the shared-variable equalities and the temporal ordering of
  * adjacent chain elements, as pairs of [[MatchCol]]s. This is the
  * Catalyst arm that [[QueryEngine.run]] executes; the scheduler's
  * [[Dependents]] join the same pairs on the driver, and tests hold the two
  * arms equal.
  */
object EventMatcher {

  /** All matches of the plan's patterns: one row per matched event
    * sequence, with a column per [[MatchCol]] under its `name`
    * (`evt1__ts`, …), plus
    * `__alert_ts` = timestamp of the last event in the match (detection
    * time).
    */
  def matches(events: DataFrame, plan: RulePlan): DataFrame = {
    def side(p: PatternPlan): DataFrame = events.filter(p.predicate)
      .select(events.columns.toSeq.map(c => col(c).as(MatchCol(p.alias, c).name)): _*)
    val joined = plan.patterns.tail.foldLeft(side(plan.patterns.head)) { (acc, p) =>
      p.join.fold(acc.crossJoin(side(p)))(acc.join(side(p), _))
    }
    val tsCols = plan.patterns.map(p => col(MatchCol(p.alias, "ts").name))
    joined.withColumn("__alert_ts",
      if (tsCols.size == 1) tsCols.head else greatest(tsCols: _*))
  }

  /** Project matches to the query's `return` items (+ `__alert_ts`). With
    * `distinct`, keeps the earliest alert time per distinct row, so
    * detection latency reflects the first match.
    */
  def project(matchesDf: DataFrame, plan: RulePlan): DataFrame = {
    val projected = matchesDf.select(plan.returnColumns: _*)
    if (plan.query.ret.distinct)
      projected.groupBy(plan.returns.map(r => col(r._1)): _*)
        .agg(min(col("__alert_ts")).as("__alert_ts"))
    else projected
  }
}
