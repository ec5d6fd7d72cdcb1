package repro.selector

import java.nio.{ByteBuffer, ByteOrder}
import repro.storage.FileSystemWrapper

/** A selected sample: its storage key and its training weight (the weight
  * multiplies the sample's gradient during backpropagation, §3.1).
  */
final case class SelectedSample(key: Long, weight: Double)

/** The TriggerSampleStorage (TSS, §4.2.2): fast binary persistence of the
  * trigger training set.
  *
  * The selection strategy hands the TSS the trigger training set one
  * fixed-size partition at a time (bounding memory, and providing the unit
  * of transfer to the trainer). Each partition is written by `numThreads`
  * parallel writers, producing `numThreads` files of 16-byte little-endian
  * (Int64 key, Float64 weight) records — the same binary format as the
  * local metadata backend.
  *
  * On the read side, a dataloader worker asks for *its* share of a
  * partition. The worker count generally differs from the writer-thread
  * count, so the reader computes the worker's contiguous record range over
  * the whole partition and reassembles it from subparts of the underlying
  * files — exactly the subpart-parsing the paper hides in its C++
  * extension.
  */
final class TriggerSampleStorage(fs: FileSystemWrapper, baseDir: String) {
  val RecordBytes = 16

  private def partDir(triggerId: Int): String = f"$baseDir/trigger_$triggerId%06d"
  private def fileName(triggerId: Int, partitionId: Int, threadId: Int): String =
    f"${partDir(triggerId)}/part_${partitionId}%06d_w$threadId%05d.tss"

  /** Persist one partition of trigger `triggerId` using `numThreads`
    * parallel writer threads, each writing a contiguous chunk to its own
    * file.
    */
  def writePartition(triggerId: Int, partitionId: Int,
                     samples: IndexedSeq[SelectedSample], numThreads: Int): Unit = {
    require(numThreads > 0, "numThreads must be positive")
    require(samples.nonEmpty, "cannot persist an empty partition")
    val per    = (samples.length + numThreads - 1) / numThreads
    val chunks = samples.grouped(per).toIndexedSeq
    val threads = chunks.zipWithIndex.map { case (chunk, tid) =>
      val t = new Thread(() => {
        val bytes = new Array[Byte](chunk.length * RecordBytes)
        val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
        chunk.foreach { s => bb.putLong(s.key); bb.putDouble(s.weight) }
        fs.write(fileName(triggerId, partitionId, tid), bytes)
      }, s"tss-writer-$tid")
      t.start(); t
    }
    threads.foreach(_.join())
  }

  /** Files comprising (triggerId, partitionId), in writer-thread order. */
  private def partitionFiles(triggerId: Int, partitionId: Int): Seq[String] = {
    val prefix = f"part_${partitionId}%06d_w"
    fs.list(partDir(triggerId)).filter { p =>
      val n = p.substring(p.lastIndexOf('/') + 1)
      n.startsWith(prefix) && n.endsWith(".tss")
    }
  }

  /** Number of partitions persisted for `triggerId`. */
  def numPartitions(triggerId: Int): Int =
    fs.list(partDir(triggerId))
      .map(p => p.substring(p.lastIndexOf('/') + 1))
      .filter(_.endsWith(".tss"))
      .map(_.stripPrefix("part_").take(6).toInt)
      .distinct.size

  /** Total records in (triggerId, partitionId). */
  def partitionSize(triggerId: Int, partitionId: Int): Long =
    partitionFiles(triggerId, partitionId).map(fs.size(_) / RecordBytes).sum

  /** Worker `workerId` of `numWorkers`'s share of a partition: the
    * contiguous record range `[workerId*total/numWorkers,
    * (workerId+1)*total/numWorkers)` over the concatenation of the writer
    * files, assembled with ranged reads of only the needed subparts.
    */
  def readWorkerShare(triggerId: Int, partitionId: Int,
                      workerId: Int, numWorkers: Int): IndexedSeq[SelectedSample] = {
    require(numWorkers > 0 && workerId >= 0 && workerId < numWorkers,
      s"workerId $workerId out of [0, $numWorkers)")
    val files = partitionFiles(triggerId, partitionId)
    val sizes = files.map(fs.size(_) / RecordBytes)
    val total = sizes.sum
    val start = workerId * total / numWorkers
    val end   = (workerId + 1) * total / numWorkers
    readRange(files, sizes, start, end)
  }

  /** Every record of the partition, in writer order. */
  def readPartition(triggerId: Int, partitionId: Int): IndexedSeq[SelectedSample] = {
    val files = partitionFiles(triggerId, partitionId)
    val sizes = files.map(fs.size(_) / RecordBytes)
    readRange(files, sizes, 0L, sizes.sum)
  }

  private def readRange(files: Seq[String], sizes: Seq[Long],
                        start: Long, end: Long): IndexedSeq[SelectedSample] = {
    val out = IndexedSeq.newBuilder[SelectedSample]
    var fileStart = 0L
    files.zip(sizes).foreach { case (path, n) =>
      val fileEnd = fileStart + n
      val lo = math.max(start, fileStart)
      val hi = math.min(end, fileEnd)
      if (lo < hi) {
        val bytes = fs.read(path, (lo - fileStart) * RecordBytes, ((hi - lo) * RecordBytes).toInt)
        val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
        var i = 0L
        while (i < hi - lo) { out += SelectedSample(bb.getLong(), bb.getDouble()); i += 1 }
      }
      fileStart = fileEnd
    }
    out.result()
  }
}

/** Handle to a persisted trigger training set: where it lives and how it is
  * partitioned. This is what the selector returns to the supervisor/trainer
  * on trigger (§3.4 step 4).
  */
final case class TriggerTrainingSet(triggerId: Int, numPartitions: Int,
                                    totalSamples: Long, tss: TriggerSampleStorage)
