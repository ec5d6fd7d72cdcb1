package repro

import repro.selector.{SelectedSample, TriggerSampleStorage}
import repro.storage.{PayloadBatch, StorageService}

/** Test-only conveniences over the main API: whole-result reads that the
  * streaming data path never needs. Bring them in with `import repro.TestOps._`.
  */
object TestOps {

  implicit final class StorageServiceOps(private val svc: StorageService) extends AnyVal {
    /** Retrieve `keys` and concatenate every streamed batch. */
    def retrieveAll(keys: Array[Long], nThreads: Int = 1): PayloadBatch = {
      val batches = svc.retrieve(keys, nThreads).toIndexedSeq
      PayloadBatch(
        batches.flatMap(_.keys).toArray,
        batches.flatMap(_.payloads).toArray,
        batches.flatMap(_.labels).toArray)
    }
  }

  implicit final class TriggerSampleStorageOps(private val tss: TriggerSampleStorage) extends AnyVal {
    /** Every record of the whole trigger training set, partition order. */
    def readTrigger(triggerId: Int): IndexedSeq[SelectedSample] =
      (0 until tss.numPartitions(triggerId)).flatMap(tss.readPartition(triggerId, _))
  }
}
